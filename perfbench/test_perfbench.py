"""The benchmark's own test: smoke runs, the result contract, the relabeller.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expect_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_end_to_end(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds",
                       "1", "--trace", "0", "--smoke"))
    _expect_metrics(res, SPEC["end_to_end"])
    for m in res["metrics"].values():
        assert m["value"] > 0


def test_smoke_trace_reports_every_layer():
    res = _result(_run("--workload", "analyze-ladder", "--seed", "3",
                       "--seconds", "1", "--trace", "1", "--smoke"))
    _expect_metrics(res, SPEC["per_layer"])
    times = [v["value"] for k, v in res["metrics"].items()
             if k.endswith("_s")]
    assert all(t > 0 for t in times)


def test_relabel_keeps_answers():
    from conleylab import algebra, attractor
    from conleylab.flow import CombinatorialFlow
    body = gen.build("flow", "example22-torus", 8)
    moved = gen.relabel(body, random.Random("7/x"))
    assert "recipe" not in moved
    assert sorted(c for c, _ in moved["complex"]["cells"]) == sorted(
        c for c, _ in body["complex"]["cells"])
    assert moved["successors"] != body["successors"]
    flow = CombinatorialFlow.from_json(moved)
    rep = attractor.analyze(flow, moved["k"])
    assert (rep.classification, rep.r, rep.s, rep.global_attractor) == (
        "NoExternalExplosions", 1, 1, True)
    klein = gen.relabel(gen.build("space", "klein", 6), random.Random(1))
    rows = algebra.homology(CombinatorialFlow.from_json(klein).cx, ring="z")
    assert [(h["rank"], h["torsion"]) for h in rows] == workloads.KLEIN_Z


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run("--workload", "analyze-ladder", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
