"""The package API that the benchmark's workloads call, pinned in tier-1.

`bench/workloads.py` is imported read-only from its own directory. Its shared
checks slice, int-index and iterate the workbench's point sets, call
`per_sample_gradients`, `mean_gradients`, `clip_per_sample`, `dp_train_step`
and `zoo_generate` on a slice and `mixup_generate` on two rows, and compare
against the benchmark's numpy reference. `check_row` does the same for one
attack-convention metrics row, and `train` must return (params, history).
"""

import importlib
import sys
from pathlib import Path

import pytest

from privtsf import forecaster as fc
from privtsf import runner

BENCH = Path(__file__).resolve().parent.parent / "bench"
SHARED = ("gradients", "clipping", "noiseless-dp-step", "zoo-pca-span", "mixup")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


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
