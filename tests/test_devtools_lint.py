"""The linter lints itself honest: per-rule fixtures + live-tree check.

Each rule gets at least one positive fixture (the hazard, caught) and
one negative fixture (the sanctioned idiom, silent).  Fixture trees are
laid out as ``<tmp>/repro/...`` so module-scoped rules resolve the same
dotted names they see in the real checkout.  The suite ends by linting
the live ``src/`` tree against the committed baseline — the same gate CI
runs — so a rule regression and a code regression both fail here first.
"""

import configparser
import importlib.util
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools import rules as R
from repro.devtools.lint import (
    DEFAULT_BASELINE,
    Baseline,
    main,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path, files, rule=None, baseline=None):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    rules = None if rule is None else [rule]
    return run_lint([tmp_path], rules=rules, baseline=baseline)


def messages(result):
    return [f"{f.rule}: {f.message}" for f in result.findings]


# --- determinism rules ------------------------------------------------------


class TestWallClock:
    def test_flags_wall_clock_in_core(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/thing.py": """
                import time

                def stamp():
                    return time.time()
                """
            },
            rule=R.WallClockRule(),
        )
        assert len(result.findings) == 1
        assert "time.time" in result.findings[0].message

    def test_flags_datetime_now_via_from_import(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/thing.py": """
                from datetime import datetime

                def stamp():
                    return datetime.now()
                """
            },
            rule=R.WallClockRule(),
        )
        assert len(result.findings) == 1

    def test_perf_counter_and_experiments_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/telemetry.py": """
                import time

                def elapsed(t0):
                    return time.perf_counter() - t0
                """,
                "repro/experiments/bench.py": """
                import time

                def stamp():
                    return time.time()
                """,
            },
            rule=R.WallClockRule(),
        )
        assert result.clean


class TestGlobalRng:
    def test_flags_stdlib_and_legacy_numpy_draws(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/thing.py": """
                import random

                import numpy as np

                def jitter():
                    np.random.seed(0)
                    return random.random()
                """
            },
            rule=R.GlobalRngRule(),
        )
        assert len(result.findings) == 2

    def test_seeded_generators_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/thing.py": """
                import random

                import numpy as np

                def jitter(seed):
                    rng = np.random.default_rng(seed)
                    local = random.Random(seed)
                    return rng.random() + local.random()
                """
            },
            rule=R.GlobalRngRule(),
        )
        assert result.clean


class TestUnorderedIter:
    def test_flags_set_iteration_in_emission_scope(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/unify/thing.py": """
                def emit(items):
                    seen = set(items)
                    out = []
                    for x in seen:
                        out.append(x)
                    return [y for y in {1, 2, 3}] + out
                """
            },
            rule=R.UnorderedIterRule(),
        )
        assert len(result.findings) == 2

    def test_sorted_wrapper_and_out_of_scope_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/unify/thing.py": """
                def emit(items):
                    seen = set(items)
                    return [x for x in sorted(seen)]
                """,
                "repro/sim/thing.py": """
                def anywhere(items):
                    return [x for x in set(items)]
                """,
            },
            rule=R.UnorderedIterRule(),
        )
        assert result.clean

    def test_rebinding_clears_the_taint(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/sync/thing.py": """
                def emit(items):
                    seen = set(items)
                    seen = sorted(seen)
                    return [x for x in seen]
                """
            },
            rule=R.UnorderedIterRule(),
        )
        assert result.clean


class TestStreamDiscipline:
    def test_flags_unknown_and_non_literal_stream_names(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/runner.py": """
                def setup(streams, which):
                    streams.component("weather")
                    streams.component(which)
                """
            },
            rule=R.StreamDisciplineRule(),
        )
        assert len(result.findings) == 2
        assert any("unknown scenario stream" in m for m in messages(result))
        assert any("string literal" in m for m in messages(result))

    def test_flags_two_streams_in_one_function(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/runner.py": """
                def setup(streams):
                    a = streams.component("roam")
                    b = streams.entity("arrival", 3)
                    return a, b
                """
            },
            rule=R.StreamDisciplineRule(),
        )
        assert len(result.findings) == 1
        assert "exactly one spawn-keyed stream" in result.findings[0].message

    def test_single_declared_stream_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/runner.py": """
                def arrivals(streams, station):
                    return streams.entity("arrival", station)
                """
            },
            rule=R.StreamDisciplineRule(),
        )
        assert result.clean

    def test_keys_collected_from_scenario_module(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/scenario.py": """
                _STREAM_KEYS = {"weather": 17}
                """,
                "repro/sim/runner.py": """
                def setup(streams):
                    return streams.component("weather")
                """,
            },
            rule=R.StreamDisciplineRule(),
        )
        assert result.clean


# --- error policy -----------------------------------------------------------


class TestErrorPolicy:
    def test_flags_bare_except_anywhere(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/thing.py": """
                def guard(fn):
                    try:
                        return fn()
                    except:
                        return None
                """
            },
            rule=R.ErrorPolicyRule(),
        )
        assert len(result.findings) == 1
        assert "bare except" in result.findings[0].message

    def test_flags_swallowed_exception_in_ledger_module(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/faults.py": """
                def salvage(future):
                    try:
                        return future.peek()
                    except ValueError:
                        pass
                """
            },
            rule=R.ErrorPolicyRule(),
        )
        assert len(result.findings) == 1
        assert "health-ledger" in result.findings[0].message

    def test_counted_or_logged_handlers_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/faults.py": """
                def salvage(future, health):
                    try:
                        return future.peek()
                    except ValueError:
                        health.worker_crashes += 1
                        return None
                """,
                "repro/sim/thing.py": """
                def probe(fn):
                    try:
                        return fn()
                    except OSError:
                        pass
                """,
            },
            rule=R.ErrorPolicyRule(),
        )
        assert result.clean


# --- struct-format consistency ----------------------------------------------


STRUCT_DECL = """
import struct

_H = struct.Struct("<HH")
"""


class TestStructConsistency:
    def test_flags_arity_and_range_drift(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/jtrace/records.py": STRUCT_DECL,
                "repro/jtrace/io.py": """
                import struct

                from .records import _H

                def roundtrip(buf):
                    payload = _H.pack(1, 2, 3)
                    a, b, c = _H.unpack(buf)
                    tail = _H.unpack_from(buf, 0)[5]
                    return payload, a, b, c, tail
                """,
            },
            rule=R.StructConsistencyRule(),
        )
        assert len(result.findings) == 3
        joined = "\n".join(messages(result))
        assert "pack() called with 3 value(s)" in joined
        assert "unpacked into 3 name(s)" in joined
        assert "[5] is out of range" in joined

    def test_flags_invalid_format_literal(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/jtrace/io.py": """
                import struct

                def bad():
                    return struct.calcsize("<Q!")
                """
            },
            rule=R.StructConsistencyRule(),
        )
        assert len(result.findings) == 1
        assert "invalid struct format" in result.findings[0].message

    def test_consistent_uses_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/jtrace/records.py": STRUCT_DECL,
                "repro/jtrace/io.py": """
                from .records import _H

                def roundtrip(buf):
                    payload = _H.pack(1, 2)
                    a, b = _H.unpack(buf)
                    return payload, a, _H.unpack_from(buf, 0)[1]
                """,
            },
            rule=R.StructConsistencyRule(),
        )
        assert result.clean

    def test_flags_iter_unpack_loop_arity_drift(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/jtrace/records.py": STRUCT_DECL,
                "repro/jtrace/io.py": """
                from .records import _H

                def drain(buf):
                    out = []
                    for a, b, c in _H.iter_unpack(buf):
                        out.append((a, b, c))
                    for a, b in _H.iter_unpack(buf):
                        out.append((a, b))
                    return out
                """,
            },
            rule=R.StructConsistencyRule(),
        )
        assert len(result.findings) == 1
        assert "iter_unpack() loop unpacks 3 name(s)" in (
            result.findings[0].message
        )

    def test_flags_structured_dtype_field_count_drift(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/jtrace/records.py": """
                import struct

                _np = None

                _H = struct.Struct("<HH")
                _H_DTYPE = _np.dtype([
                    ("first", "<u2"),
                    ("second", "<u2"),
                    ("third", "<u2"),
                ])
                """,
            },
            rule=R.StructConsistencyRule(),
        )
        # 3 dtype fields vs 2 struct fields, and 6 bytes vs 4.
        assert len(result.findings) == 2
        joined = "\n".join(messages(result))
        assert "declares 3 field(s)" in joined
        assert "spans 6 byte(s)" in joined

    def test_matching_structured_dtype_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/jtrace/records.py": """
                import struct

                _np = None

                _H = struct.Struct("<Hq")
                _H_DTYPE = _np.dtype([
                    ("first", "<u2"),
                    ("second", "<i8"),
                ])
                _OTHER_DTYPE = _np.dtype([("lone", "<u4")])
                """,
            },
            rule=R.StructConsistencyRule(),
        )
        assert result.clean


# --- PipelinePass conformance -----------------------------------------------


class TestPassConformance:
    def test_flags_typo_hooks_and_bad_signatures(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/mypasses.py": """
                from repro.core.passes import PipelinePass

                class Broken(PipelinePass):
                    name = "broken"

                    def on_jframes(self, jframe):
                        return None

                    def on_attempt(self, attempt, extra):
                        return None

                    def on_flow(self, **kwargs):
                        return None
                """
            },
            rule=R.PassConformanceRule(),
        )
        joined = "\n".join(messages(result))
        assert "on_jframes" in joined and "never call it" in joined
        assert "on_attempt takes 3" in joined
        assert "must not use *args/**kwargs" in joined

    def test_transitive_subclasses_checked(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/base.py": """
                from repro.core.passes import PipelinePass

                class Mid(PipelinePass):
                    name = "mid"
                """,
                "repro/core/leaf.py": """
                from .base import Mid

                class Leaf(Mid):
                    name = "leaf"

                    def on_exchanges(self, exchange):
                        return None
                """,
            },
            rule=R.PassConformanceRule(),
        )
        assert len(result.findings) == 1
        assert "Leaf.on_exchanges" in result.findings[0].message

    def test_conforming_pass_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/mypasses.py": """
                from repro.core.passes import PipelinePass

                class Counter(PipelinePass):
                    name = "counter"

                    def __init__(self):
                        self.n = 0

                    def on_jframe(self, jframe):
                        self.n += 1

                    def finish(self, context):
                        return self.n
                """
            },
            rule=R.PassConformanceRule(),
        )
        assert result.clean


# --- generic hygiene --------------------------------------------------------


class TestMutableDefault:
    def test_flags_literal_and_constructor_defaults(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/thing.py": """
                def collect(into=[], index=dict()):
                    return into, index
                """
            },
            rule=R.MutableDefaultRule(),
        )
        assert len(result.findings) == 2

    def test_none_default_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/thing.py": """
                def collect(into=None):
                    return [] if into is None else into
                """
            },
            rule=R.MutableDefaultRule(),
        )
        assert result.clean


class TestTypedApi:
    def test_flags_untyped_defs_in_strict_module(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/passes.py": """
                def run_passes(report, passes):
                    return None
                """
            },
            rule=R.TypedApiRule(),
        )
        assert len(result.findings) == 2  # parameters + return
        joined = "\n".join(messages(result))
        assert "report, passes unannotated" in joined
        assert "no return annotation" in joined

    def test_annotated_defs_and_lenient_modules_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/passes.py": """
                from typing import Any

                class PassContext:
                    def describe(self, verbose: bool = False) -> str:
                        return "ctx"

                def run_passes(report: Any) -> None:
                    return None
                """,
                "repro/sim/loose.py": """
                def helper(x):
                    return x
                """,
            },
            rule=R.TypedApiRule(),
        )
        assert result.clean


class TestRecordConstructor:
    def test_flags_every_unvalidated_constructor(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/sim/thing.py": """
                from ..jtrace import records
                from ..jtrace.records import TraceRecord

                def forge(fields):
                    a = tuple.__new__(TraceRecord, fields)
                    b = TraceRecord._make(fields)
                    c = object.__new__(records.TraceRecord)
                    return a, b, c, list(map(TraceRecord._make, [fields]))
                """
            },
            rule=R.RecordConstructorRule(),
        )
        assert [f.line for f in result.findings] == [6, 7, 8, 9]
        assert all("without the constructor's checks" in m
                   for m in messages(result))

    def test_constructor_replace_and_the_home_module_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/jtrace/records.py": """
                class TraceRecord(tuple):
                    pass

                def decode(columns):
                    one = tuple.__new__(TraceRecord, next(columns))
                    return [one, TraceRecord._make(next(columns))]
                """,
                "repro/sim/thing.py": """
                from ..jtrace.records import TraceRecord

                def shift(record, fields, other):
                    made = TraceRecord(*fields)
                    plain = tuple.__new__(tuple, fields)
                    moved = record._replace(timestamp_us=5)
                    return moved, made, plain, other._make(fields)
                """,
            },
            rule=R.RecordConstructorRule(),
        )
        assert result.clean


class TestGcControl:
    def test_flags_collector_state_changes_in_library_code(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/unify/thing.py": """
                import gc
                from gc import freeze as pin

                def merge(records):
                    gc.disable()
                    pin()
                    gc.set_threshold(100_000)
                    gc.collect()
                    gc.unfreeze()
                    gc.enable()
                    return gc.isenabled(), records
                """
            },
            rule=R.GcControlRule(),
        )
        assert [f.line for f in result.findings] == [6, 7, 8, 10, 11]
        assert all("for the whole process" in m for m in messages(result))

    SOURCE = """
    import gc

    def run():
        enabled = gc.isenabled()
        gc.disable()
        gc.freeze()
        if enabled:
            gc.enable()
    """

    def test_pipeline_and_measurement_code_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/pipeline.py": self.SOURCE,
                "repro/experiments/common.py": self.SOURCE,
            },
            rule=R.GcControlRule(),
        )
        assert result.clean

    def test_daemon_is_flagged(self, tmp_path):
        """The daemon pauses through the pipeline's pause and only
        calls ``gc.collect``; a change of state of its own is flagged."""
        result = lint_tree(
            tmp_path,
            {"repro/service/daemon.py": self.SOURCE},
            rule=R.GcControlRule(),
        )
        assert [f.line for f in result.findings] == [6, 7, 9]


# --- engine mechanics: suppressions, baseline, CLI --------------------------


class TestSuppressions:
    def test_targeted_and_bare_ignores(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/thing.py": """
                import time

                def stamp():
                    return time.time()  # repro: ignore[wall-clock]

                def stamp2():
                    return time.time()  # repro: ignore
                """
            },
            rule=R.WallClockRule(),
        )
        assert result.clean
        assert result.suppressed == 2

    def test_ignore_for_other_rule_does_not_apply(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/thing.py": """
                import time

                def stamp():
                    return time.time()  # repro: ignore[global-rng]
                """
            },
            rule=R.WallClockRule(),
        )
        assert len(result.findings) == 1
        assert result.suppressed == 0


class TestBaseline:
    FILES = {
        "repro/core/thing.py": """
        import time

        def stamp():
            return time.time()
        """
    }

    def test_baselined_finding_does_not_fail(self, tmp_path):
        first = lint_tree(tmp_path, self.FILES, rule=R.WallClockRule())
        assert len(first.findings) == 1
        baseline = Baseline(
            entries=[Baseline.entry_for(first.findings[0], "pre-existing")]
        )
        second = run_lint(
            [tmp_path], rules=[R.WallClockRule()], baseline=baseline
        )
        assert second.clean
        assert len(second.baselined) == 1
        assert not second.stale_baseline

    def test_fixed_debt_surfaces_as_stale(self, tmp_path):
        first = lint_tree(tmp_path, self.FILES, rule=R.WallClockRule())
        baseline = Baseline(
            entries=[Baseline.entry_for(first.findings[0], "pre-existing")]
        )
        (tmp_path / "repro/core/thing.py").write_text(
            "def stamp():\n    return 0\n"
        )
        second = run_lint(
            [tmp_path], rules=[R.WallClockRule()], baseline=baseline
        )
        assert second.clean
        assert len(second.stale_baseline) == 1


class TestCli:
    def write_dirty(self, tmp_path):
        target = tmp_path / "repro/core/thing.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\n\nT = time.time()\n")

    def test_exit_codes(self, tmp_path, capsys):
        self.write_dirty(tmp_path)
        assert main([str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out
        assert main([str(tmp_path / "missing")]) == 2
        assert main(["--rule", "no-such-rule", str(tmp_path)]) == 2
        assert main(["--list-rules"]) == 0

    def test_json_output(self, tmp_path, capsys):
        self.write_dirty(tmp_path)
        assert main([str(tmp_path), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert payload["findings"][0]["rule"] == "wall-clock"
        assert payload["findings"][0]["path"].endswith("thing.py")

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        self.write_dirty(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert (
            main(
                [
                    str(tmp_path),
                    "--baseline",
                    str(baseline_path),
                    "--write-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert baseline_path.exists()
        assert (
            main([str(tmp_path), "--baseline", str(baseline_path)]) == 0
        )
        summary = capsys.readouterr().err
        assert "1 baselined" in summary


# --- the gate itself --------------------------------------------------------


class TestLiveTree:
    def test_src_is_clean_modulo_committed_baseline(self):
        baseline = Baseline.load(DEFAULT_BASELINE)
        result = run_lint([REPO_ROOT / "src"], baseline=baseline)
        assert result.clean, "\n".join(f.format() for f in result.findings)
        assert not result.stale_baseline, result.stale_baseline

    def test_rule_catalog_names_are_unique(self):
        names = [cls.name for cls in R.ALL_RULES]
        assert len(names) == len(set(names))

    def test_strict_tier_names_real_modules_and_mirrors_mypy_ini(self):
        """A strict entry for a deleted module checks nothing (and trips
        mypy's warn_unused_configs); the two lists must not drift."""
        for module in sorted(R.STRICT_TYPED_MODULES):
            path = REPO_ROOT / "src" / Path(*module.split("."))
            assert (
                path.with_suffix(".py").is_file()
                or (path / "__init__.py").is_file()
            ), module
        config = configparser.ConfigParser()
        config.read(REPO_ROOT / "mypy.ini")
        (strict_section,) = [
            name for name in config.sections() if name.startswith("mypy-")
        ]
        assert R.STRICT_TYPED_MODULES == set(
            strict_section[len("mypy-"):].split(",")
        )


# --- optional external tools (installed in CI, maybe not locally) -----------


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "."],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_mypy_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
