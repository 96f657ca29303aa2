"""Tests for the CI perf-regression gate (``benchmarks/check_regression.py``).

The gate is itself gate-keeping CI, so its edge cases get tests: the
historical bug was that a guarded metric *absent from the baseline*
printed "NEW ... skipped" and passed silently — a renamed section could
disable the whole gate without anyone noticing.  Absent sections are
now a visible WARN by default and a hard FAIL under
``--require-sections``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_GATE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", check_regression)
_spec.loader.exec_module(check_regression)


def full_payload(scale=1.0):
    """A payload covering every guarded metric, optionally scaled."""
    payload = {}
    for dotted, _label in check_regression.GUARDED_METRICS:
        node = payload
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = 100.0 * scale
    return payload


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def run_gate(tmp_path, baseline, current, *extra):
    base_path = write_json(tmp_path / "baseline.json", baseline)
    cur_path = write_json(tmp_path / "current.json", current)
    argv = [
        "--baseline", str(base_path),
        "--current", str(cur_path),
        *extra,
    ]
    return check_regression.main(argv)


class TestToleranceBand:
    def test_identical_results_pass(self, tmp_path):
        assert run_gate(tmp_path, full_payload(), full_payload()) == 0

    def test_regression_beyond_band_fails(self, tmp_path):
        assert run_gate(tmp_path, full_payload(), full_payload(0.5)) == 1

    def test_small_dip_warns_but_passes(self, tmp_path, capsys):
        assert run_gate(tmp_path, full_payload(), full_payload(0.9)) == 0
        assert "WARN" in capsys.readouterr().out

    def test_metric_missing_from_current_fails(self, tmp_path):
        current = full_payload()
        del current["decode"]
        assert run_gate(tmp_path, full_payload(), current) == 1


class TestAbsentBaselineSections:
    def test_absent_section_warns_but_passes_by_default(
        self, tmp_path, capsys
    ):
        baseline = full_payload()
        del baseline["bootstrap"]
        assert run_gate(tmp_path, baseline, full_payload()) == 0
        out = capsys.readouterr().out
        assert "WARN" in out
        assert "no baseline" in out
        assert "NEW" not in out  # the silent-skip wording is gone

    def test_require_sections_makes_absent_baseline_fatal(
        self, tmp_path, capsys
    ):
        baseline = full_payload()
        del baseline["bootstrap"]
        assert (
            run_gate(
                tmp_path, baseline, full_payload(), "--require-sections"
            )
            == 1
        )
        assert "--require-sections" in capsys.readouterr().out

    def test_require_sections_passes_with_full_history(self, tmp_path):
        assert (
            run_gate(
                tmp_path, full_payload(), full_payload(), "--require-sections"
            )
            == 0
        )

    def test_zero_baseline_treated_as_absent(self, tmp_path):
        baseline = full_payload()
        baseline["decode"]["decode_speedup"] = 0
        assert run_gate(tmp_path, baseline, full_payload()) == 0
        assert (
            run_gate(
                tmp_path, baseline, full_payload(), "--require-sections"
            )
            == 1
        )


class TestHierarchySections:
    """The campus-scale sections are guarded, not just recorded."""

    def test_hierarchy_and_pool_metrics_are_guarded(self):
        dotted = {d for d, _ in check_regression.GUARDED_METRICS}
        assert "pool_scaling.best_records_per_second" in dotted

    def test_hierarchy_regression_fails_the_gate(self, tmp_path):
        current = full_payload()
        # 0.5x baseline
        current["pool_scaling"]["best_records_per_second"] = 50.0
        assert run_gate(tmp_path, full_payload(), current) == 1

    def test_missing_pool_section_fails_under_require(self, tmp_path):
        baseline = full_payload()
        del baseline["pool_scaling"]
        assert (
            run_gate(
                tmp_path, baseline, full_payload(), "--require-sections"
            )
            == 1
        )


class TestMissingFiles:
    def test_missing_baseline_file_skips(self, tmp_path):
        cur = write_json(tmp_path / "current.json", full_payload())
        assert (
            check_regression.main(
                [
                    "--baseline", str(tmp_path / "absent.json"),
                    "--current", str(cur),
                ]
            )
            == 0
        )

    def test_missing_current_file_fails(self, tmp_path):
        base = write_json(tmp_path / "baseline.json", full_payload())
        assert (
            check_regression.main(
                [
                    "--baseline", str(base),
                    "--current", str(tmp_path / "absent.json"),
                ]
            )
            == 1
        )
