"""Smoke test of the benchmark itself, at ``--scale tiny``.

Holds the things a later change could silently break: that every
workload and metric named in ``BENCHMARK.json`` is emitted (and nothing
else), that counts are a function of the seed alone, that a wrong
reference fails the run, and that ``compare.py`` tells a file from a
doctored copy.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Metrics that count things: equal for equal seeds, whatever the host.
COUNTS = (
    "unify.records_in",
    "unify.jframes_out",
    "link.exchanges_out",
    "window_lag_us_p50",
    "window_lag_us_p90",
    "failed_share",
)


def run_script(script, *args):
    return subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def result_file(tmp_path_factory):
    """All five workloads, traced: seed 7 twice, then seed 8."""
    out = tmp_path_factory.mktemp("e2e") / "tiny.json"
    done = run_script(
        "run.py", "--scale", "tiny", "--seconds", "0.2",
        "--seed", 7, 7, 8, "--out", out,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out


def test_contract_names_every_metric_emitted_and_no_other(result_file):
    workloads = [w["name"] for w in CONTRACT["workloads"]]
    metrics = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert all(NAME.match(n) for n in workloads + metrics)
    assert len(set(workloads + metrics)) == len(workloads + metrics)
    assert "setup_s" in [m["name"] for m in CONTRACT["end_to_end"]]
    runs = json.loads(result_file.read_text())["runs"]
    assert {r["workload"] for r in runs} == set(workloads)
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 4
        assert set(run["metrics"]) == set(metrics), run["workload"]
    for metric in CONTRACT["end_to_end"]:
        assert all(r["metrics"][metric["name"]] > 0 for r in runs), metric["name"]


def test_counts_depend_on_the_seed_alone(result_file):
    runs = json.loads(result_file.read_text())["runs"]
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        first, second, other = [r for r in runs if r["workload"] == workload]
        assert (first["seed"], second["seed"], other["seed"]) == (7, 7, 8)
        counts = [[r["metrics"][c] for c in COUNTS] for r in (first, second, other)]
        assert counts[0] == counts[1], workload
        assert counts[0] != counts[2], workload
    faulty = [r for r in runs if r["workload"] == "building_faulty_files"]
    assert all(r["metrics"]["failed_share"] > 0 for r in faulty)
    service = [r for r in runs if r["workload"] == "flash_crowd_service"]
    assert all(r["metrics"]["window_lag_us_p90"] > 0 for r in service)


def test_last_line_is_the_driver_contract():
    done = run_script(
        "run.py", "--workload", "campus_memory", "--scale", "tiny",
        "--seed", 3, "--seconds", "0.2", "--trace", 0,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {
        name: value["unit"] for name, value in line["metrics"].items()
    } == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}


def test_wrong_reference_fails_the_run():
    done = run_script(
        "run.py", "--workload", "building_files", "--scale", "tiny",
        "--seed", 3, "--seconds", "0.2", "--trace", 0,
        "--self-test-wrong-reference",
    )
    assert done.returncode == 1
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_compare_passes_a_file_against_itself_and_fails_a_doctored_copy(
    result_file, tmp_path
):
    same = run_script("compare.py", result_file, result_file)
    assert same.returncode == 0, same.stdout
    assert "WORSE" not in same.stdout

    doctored = json.loads(result_file.read_text())
    for run in doctored["runs"]:
        if run["workload"] == "campus_memory":
            run["metrics"]["e2e_records_per_s"] /= 2
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(doctored))
    worse = run_script("compare.py", result_file, slower)
    assert worse.returncode == 1
    assert "WORSE" in worse.stdout
