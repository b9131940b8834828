"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import iqm  # noqa: E402
from inputs import basket_json, distinct_baskets, encode, fit_config  # noqa: E402
from repro.core.rule_index import basket_key  # noqa: E402
from workloads import max_rate, write_db  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _payloads(seed: int) -> bytes:
    baskets = distinct_baskets(seed, 150, 300)
    return b"\n".join(encode({"basket": basket_json(b)}) for b in baskets)


def test_one_seed_gives_identical_inputs_and_another_seed_differs(tmp_path):
    assert _payloads(3) == _payloads(3)
    assert _payloads(3) != _payloads(4)
    files = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        write_db(fit_config(seed, 400), tmp_path / f"{name}.jsonl")
        files[name] = (tmp_path / f"{name}.jsonl").read_bytes()
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]


def test_served_baskets_are_distinct_by_basket_key():
    baskets = distinct_baskets(7, 150, 2000)
    assert len(baskets) == 2000
    assert len({basket_key(b) for b in baskets}) == 2000


def test_iqm_averages_the_middle_half():
    assert iqm([0, 1, 2, 2, 3, 3, 4, 100]) == 2.5
    assert iqm([5.0]) == 5.0
    # Unlike a median, it moves in step with the share of slow samples.
    fast, slow = 10.0, 20.0
    readings = [iqm([slow] * k + [fast] * (12 - k)) for k in (5, 6, 7)]
    assert readings[0] < readings[1] < readings[2]
    assert readings[2] - readings[0] < slow - fast


def _step(rate, p90, valid=True, errors=0):
    return {"rate": rate, "p90_ms": p90, "valid": valid, "errors": errors}


def test_max_rate_interpolates_and_skips_invalid_steps():
    steps = [_step(200, 2.0), _step(400, 5.0), _step(800, 20.0)]
    # log-interpolated crossing of the 10 ms limit between 400 and 800
    assert max_rate(steps) == pytest.approx(600.0)
    # a step whose generator fell behind, or that failed, cannot pass
    steps = [_step(200, 2.0), _step(400, 5.0), _step(800, 2.0, valid=False)]
    assert max_rate(steps) == 400.0
    steps = [_step(200, 2.0), _step(400, 2.0, errors=1), _step(800, 40.0)]
    assert max_rate(steps) == 200.0
    # the highest passing rate counts even above a noisy lower step
    assert max_rate([_step(200, 12.0), _step(400, 3.0)]) == 400.0
    assert max_rate([_step(200, 20.0), _step(400, 30.0)]) == pytest.approx(100.0)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
# batch_pruned runs outside BENCHMARK.json (see README.md) but must keep working.
@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]] + ["batch_pruned"])
def test_tiny_run_emits_every_declared_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "fit_20k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
