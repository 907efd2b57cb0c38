"""Tests of the benchmark itself: the fast mode of every workload, the checks
and the tracer.

    python3 -m pytest perfbench

The fast runs train the decode models as the full runs do, so the whole
file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from structran import autodiff, inference, model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_fast_mode_passes_checks_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--fast")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        for name in tracer_mod.SPAN_NAMES:  # the table names every traced function
            assert name in proc.stdout
        spans = (HERE / "out" / f"spans-{workload}-5.jsonl").read_text().splitlines()
        assert spans and all(json.loads(line)["end_ns"] > 0 for line in spans)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_across_seeds():
    counts = []
    for seed in ("1", "2"):
        proc = run_bench("--workload", "decode-long", "--seed", seed, "--seconds", "1",
                         "--trace", "1", "--fast")
        assert proc.returncode == 0, proc.stderr
        counts.append({k: v["value"] for k, v in last_json(proc)["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["model.Model.complete.calls"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "train", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_stopwatch_scales_laps_by_the_reference_kernel(monkeypatch):
    import run
    readings = iter([2.0, 2.0, 0.5, 1.5])
    monkeypatch.setattr(run, "reference_ms", lambda: next(readings))
    watch = run.Stopwatch()
    ms, scaled = watch.lap()  # host at half the reference speed: halved
    assert scaled == pytest.approx(ms * run.REFERENCE_MS / 2.0)
    ms, scaled = watch.lap()  # bracketed by 2.0 and 0.5
    assert scaled == pytest.approx(ms * run.REFERENCE_MS / 1.25)
    ms, scaled = watch.lap()  # bracketed by 0.5 and 1.5
    assert scaled == pytest.approx(ms * run.REFERENCE_MS / 1.0)


def test_tail_percentile_leaves_ten_examples_beyond():
    for cls in workloads.WORKLOADS.values():
        assert (100 - cls.tail_pct) * cls.min_examples >= 10 * 100, cls.name


def test_decode_check_rejects_wrong_outputs():
    expected = np.array([0, 1, 1, 0])
    rows = np.full((4, 2), 0.5)
    good = inference.DecodeResult([0, 1, 1, 0], 4, 0.0, rows)
    assert workloads.check_decode(good, expected) is None
    assert "length" in workloads.check_decode(
        inference.DecodeResult([0, 1, 0], 3, 0.0, rows[:3]), expected)
    assert "tokens" in workloads.check_decode(
        inference.DecodeResult([0, 1, 0, 1], 4, 0.0, rows), expected)
    assert "sum" in workloads.check_decode(
        inference.DecodeResult([0, 1, 1, 0], 4, 0.0, rows * (1 + 1e-8)), expected)


def test_gradcheck_catches_a_wrong_tape(monkeypatch):
    state = workloads.Train().setup(3)
    source = state.rounds[0][0]
    assert workloads.directional_gradcheck(state, source, np.random.default_rng(0)) is None
    before = state.model.store.state_arrays()
    original = autodiff.backward

    def skewed(root):
        original(root)
        for _, node in state.model.store.items():
            if node.grad is not None:
                node.grad *= 1.01

    monkeypatch.setattr(autodiff, "backward", skewed)
    assert workloads.directional_gradcheck(state, source, np.random.default_rng(0))
    after = state.model.store.state_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_tracer_nests_spans_and_restores_functions():
    state = workloads.Train().setup(2)
    originals = {name: vars(owner)[attr] for name, owner, attr in tracer_mod.TARGETS}
    tr = tracer_mod.Tracer()
    tr.install()
    tr.example = 0
    workloads.Train().run(state, state.rounds[0][0])
    tr.uninstall()
    assert {name: vars(owner)[attr] for name, owner, attr in tracer_mod.TARGETS} == originals
    assert model.Model.prepare is originals["model.Model.prepare"]
    for name, start, end, parent, example in tr.spans:
        assert start <= end and example == 0
        if parent >= 0:
            _, pstart, pend, _, _ = tr.spans[parent]
            assert pstart <= start and end <= pend
    layers = tr.per_example(1)
    assert layers["training.example_loss.calls"] == 1
    assert layers["autodiff.backward.calls"] == 1
    assert layers["reordering.expected_permutation.bw_ms"] > 0
    assert layers["autodiff.nodes"] > 0
    for name in tracer_mod.SPAN_NAMES:
        assert 0 <= layers[f"{name}.self_ms"] <= layers[f"{name}.ms"]
