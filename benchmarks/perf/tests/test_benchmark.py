"""Tiny-scale runs of every workload, the manifest, and determinism."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import measure
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 150


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_runs(request):
    workload = WORKLOADS[request.param]
    return {trace: measure.run(workload, None, 0.0, trace, n=TINY) for trace in (False, True)}


def _declared(section):
    return [(metric["name"], metric["unit"], metric["better"]) for metric in MANIFEST[section]]


def test_metric_catalogues_match_the_manifest():
    assert list(measure.END_TO_END) == _declared("end_to_end")
    assert list(layers.PER_LAYER) == _declared("per_layer")
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in MANIFEST["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_tiny_runs_are_correct_and_report_the_declared_metrics(tiny_runs):
    for trace, result in tiny_runs.items():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= measure.DIGEST_REQUESTS
        section = "per_layer" if trace else "end_to_end"
        reported = [(name, metric["unit"]) for name, metric in result["metrics"].items()]
        assert reported == [(name, unit) for name, unit, _ in _declared(section)]
        assert result["report"]["oracle_checked"] > 0
    end_to_end = tiny_runs[False]["metrics"]
    assert all(metric["value"] > 0 for metric in end_to_end.values())
    layer = tiny_runs[True]["metrics"]
    assert 0.9 < layer["trace.attributed_frac"]["value"] <= 1.0


def test_traced_and_untraced_passes_see_the_same_responses(tiny_runs):
    assert tiny_runs[False]["report"]["digest"] == tiny_runs[True]["report"]["digest"]


def test_probe_cache_only_serves_the_batch_workload(tiny_runs):
    layer = tiny_runs[True]["metrics"]
    probes = layer["probecache.probes_per_event"]["value"]
    if tiny_runs[True]["report"]["workload"] == "yahoo-batch-skew":
        assert probes > 0 and layer["probecache.hit_ratio"]["value"] > 0
    else:
        assert probes == 0


def _stream(name, seed, count=40):
    instance = WORKLOADS[name].instance(seed, TINY)
    return instance.setup_lines, list(itertools.islice(instance.requests(), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_seed_fixes_the_inputs(name):
    assert _stream(name, 5) == _stream(name, 5)
    assert _stream(name, 5) != _stream(name, 6)


def test_the_seed_fixes_the_digest():
    workload = WORKLOADS["imdb-churn-budget"]
    first, second, other = (
        measure.run(workload, seed, 0.0, False, n=TINY)["report"]["digest"]
        for seed in (5, 5, 6)
    )
    assert first == second != other


def test_fails_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in MANIFEST["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable] + MANIFEST["command"][1:] + ["--workload", "imdb-churn-budget", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
