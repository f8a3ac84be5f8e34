"""Smoke test of the end-to-end benchmark (run explicitly, not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

One ``run.py --smoke`` invocation (one round over reduced subsets, then
the traced round, about half a minute) feeds every check but the last,
which runs ``compare.py`` on hand-made results files.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A printed metric line: ``  name = value unit``.
METRIC_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
         "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = json.loads(out.read_text())["runs"][0]
    return proc.stdout, run, spec


def test_result_line(smoke):
    stdout, _run, spec = smoke
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in spec["per_layer"]}
    for key, metric in result["metrics"].items():
        assert key.split(".", 1)[1] in names
        assert set(metric) == {"value", "unit"}


def test_printed_metrics_match_spec(smoke):
    stdout, run, spec = smoke
    units = {m["name"]: m["unit"]
             for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    blocks = stdout.split("\n== ")[1:]
    assert len(blocks) == len(run["workloads"]) == len(spec["workloads"])
    for block in blocks:
        printed = {}
        for line in block.splitlines():
            match = METRIC_LINE.match(line)
            if match:
                printed[match.group(1)] = match.group(3)
        assert printed == units, block.splitlines()[0]


def test_results_schema(smoke):
    _stdout, run, spec = smoke
    assert run["correct"] is True
    for key in ("commit", "python", "numpy", "nproc", "sched_getaffinity",
                "loadavg_before", "loadavg_after", "calibration_s",
                "calibration_spread", "noisy"):
        assert key in run["provenance"]
    assert [w["name"] for w in spec["workloads"]] == list(run["workloads"])
    for result in run["workloads"].values():
        assert result["fail_rate"] == 0.0
        assert result["digest"]
        for metric in spec["end_to_end"]:
            value = result["end_to_end"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0
        assert set(result["per_layer"]) == {
            m["name"] for m in spec["per_layer"]}


def test_spans_cover_the_wall_clock(smoke):
    _stdout, run, _spec = smoke
    for name, result in run["workloads"].items():
        assert result["per_layer"]["spans.coverage"]["value"] >= 0.90, name


def test_untraced_workers_stay_unwrapped(smoke):
    _stdout, run, _spec = smoke
    for name, result in run["workloads"].items():
        assert result["untraced_pristine"] is True, name


def test_compare_refuses_mismatched_pairs(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = spec["workloads"][0]["name"]
    results = {"attempted": 1, "failed": 0, "end_to_end": {
        m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}

    def write(name, **settings):
        run = dict({"seed": 0, "smoke": False, "seconds": 20.0, "trace": 0,
                    "started_at": 0.0, "workloads": {workload: results}},
                   **settings)
        path = tmp_path / name
        path.write_text(json.dumps({"runs": [run]}))
        return str(path)

    def compare(parent, change):
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"), parent, change],
            cwd=str(ROOT), capture_output=True, text=True, timeout=60)

    parent = write("parent.json")
    same = compare(parent, write("same.json"))
    assert same.returncode == 0, same.stderr
    assert workload in same.stdout
    for name, settings in (("seed.json", {"seed": 1}),
                           ("smoke.json", {"smoke": True})):
        refused = compare(parent, write(name, **settings))
        assert refused.returncode == 2
        assert "pair 0" in refused.stderr
