"""The package API that the benchmark's workloads call, pinned in tier-1.

`bench/workloads.py` is imported read-only from its own directory. Its shared
checks slice, int-index and iterate the workbench's point sets, call
`per_sample_gradients`, `mean_gradients`, `clip_per_sample`, `dp_train_step`
and `zoo_generate` on a slice and `mixup_generate` on two rows, and compare
against the benchmark's numpy reference. `mixup_generate` is the one-row case
of `augment.mixup_wave`, the function the runner builds mixup waves with. `check_row` does the same for one
attack-convention metrics row, and `train` must return (params, history).

`bench/tracing.py` wraps package functions by module and name, and derives
each per-layer metric from the spans of some of them; a function it cannot
find is left untraced and its metrics read 0. Those names are pinned here,
so a rename in the package fails a test instead.

`bench/selftest.py`, the benchmark's tests of its own reference code, runs
here in a child interpreter, so a change to a package function it calls
(`replay_gate`, `LossTable`, `forecast_batch`) fails tier-1 too.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from privtsf import forecaster as fc
from privtsf import runner

BENCH = Path(__file__).resolve().parent.parent / "bench"
SHARED = ("gradients", "clipping", "noiseless-dp-step", "zoo-pca-span", "mixup")
# every function whose spans feed a per-layer metric, or mark the rounds of a run
PER_LAYER_SOURCES = (
    "synth.generate",
    "data.load_triplets",
    "data.build_windows",
    "forecaster.pretrain_embedding",
    "forecaster.train_step",
    "forecaster.mean_gradients",
    "forecaster.dp_train_step",
    "forecaster.per_sample_gradients",
    "forecaster.clip_per_sample",
    "forecaster.forecast_batch",
    "forecaster.bake_points",
    "metrics.dataset_losses",
    "metrics.attack_report",
    "augment.pca_fit",
    "augment.zoo_generate",
    "augment.mixup_generate",
    "runner.build_workbench",
    "runner.run_augmentation_experiment",
    "runner._round_row",
)


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return bench_module("workloads")


@pytest.mark.parametrize("name", PER_LAYER_SOURCES)
def test_traced_metric_source_exists(name):
    layer, attr = name.split(".", 1)
    assert attr in bench_module("tracing").TARGETS[layer]
    assert callable(getattr(importlib.import_module(f"privtsf.{layer}"), attr, None)), f"privtsf.{name} is gone"


@pytest.mark.parametrize("name", SHARED)
def test_shared_check_passes(workloads, small_wb, name):
    cfg, wb = small_wb
    checks = workloads.shared_checks(wb, wb.baseline_params, cfg.seed)
    assert tuple(checks) == SHARED
    checks[name]()


def test_attack_row_matches_the_reference(workloads, small_wb):
    _, wb = small_wb
    row, _ = runner.attack_row("contract", "baseline", "", wb.baseline_params, wb, "test")
    workloads.check_row(row, wb.baseline_params, wb, "test", True, "attack row")


def test_train_returns_params_and_history(small_wb):
    cfg, wb = small_wb
    params, history = fc.train(wb.train_pts[:64], wb.baseline_params, cfg.train, epochs=2, seed=3)
    assert isinstance(params, fc.ForecasterParams)
    assert len(history) == 2


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
