"""Span tracing for the benchmark's traced runs.

A Tracer wraps module-level functions of the package, named in TARGETS, and
records one span per call: name, start, end, parent span and the benchmark
phase it ran in. A wrapped name is replaced in every privtsf module that
imported it, so `runner`'s own reference to `train` is traced as well as
`forecaster.train`. Counts are taken from argument shapes and results at the
same boundaries. Spans stay in memory until the run writes them out.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import logging
import re
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Functions wrapped in a traced run, by defining module and name. A class
# attribute is written "Class.method".
TARGETS = {
    "synth": ["generate"],
    "data": ["load_triplets", "write_triplets", "split_by_episode", "build_windows", "stack_points"],
    "forecaster": [
        "init_params",
        "pretrain_embedding",
        "bake_points",
        "train",
        "train_step",
        "mean_gradients",
        "dp_train",
        "dp_train_step",
        "per_sample_gradients",
        "clip_per_sample",
        "forecast_batch",
    ],
    "metrics": ["dataset_losses", "loss_table", "mse_set", "attack_report"],
    "augment": ["pca_fit", "zoo_generate", "mixup_generate", "SyntheticPool.insert"],
    "runner": [
        "load_episodes",
        "build_workbench",
        "run_augmentation_experiment",
        "run_dp_baseline",
        "run_attack",
        "measure_candidate",
        "evaluate_candidate",
        "apply_gate",
        "pool_sample_indices",
        "_generate_wave",
        "_round_row",
    ],
}

_ARG_COUNTED = ("forecaster.forecast_batch", "metrics.dataset_losses")

_SKIP_PATTERNS = (
    re.compile(r"skipped (\d+) non-finite perturbation pairs"),
    re.compile(r"all (\d+) perturbation pairs non-finite"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    phase: str
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _record_args(name: str, arguments: list) -> dict:
    """Counts read from a call's arguments, given in signature order."""
    if name == "forecaster.forecast_batch":
        return {"windows": len(arguments[0])}
    if name == "metrics.dataset_losses":
        points, params = arguments[0], arguments[1]
        return {"windows": len(points), "pairs": [(id(p), id(params)) for p in points]}
    return {}


def _record_result(name: str, result) -> dict:
    """Counts read from a call's result."""
    if name == "data.build_windows":
        return {"windows_binned": len(result)}
    if name == "runner.build_workbench":
        return {"windows_kept": len(result.train_pts) + len(result.heldout_pts) + len(result.test_pts)}
    if name == "runner.run_augmentation_experiment":
        return {"rounds": len(result.rows) - 1, "accepted": sum(a.accepted for a in result.audits[1:])}
    return {}


class _SkipCounter(logging.Handler):
    """Sums the skipped probe pairs that augment reports in its warning log."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.skipped = 0

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        for pattern in _SKIP_PATTERNS:
            found = pattern.search(message)
            if found:
                self.skipped += int(found.group(1))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._skips = _SkipCounter()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if name in _ARG_COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            info = _record_args(name, list(signature.bind(*args, **kwargs).arguments.values())) if signature else {}
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1, self.phase, info=info)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span.info.update(_record_result(name, result))
                return result
            finally:
                stack.pop()
                span.end = time.perf_counter()

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in sys.modules.items() if key.startswith("privtsf.") and m is not None]
        for layer, names in TARGETS.items():
            home = sys.modules[f"privtsf.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        logging.getLogger("privtsf.augment").addHandler(self._skips)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        logging.getLogger("privtsf.augment").removeHandler(self._skips)

    @property
    def skipped_pairs(self) -> int:
        return self._skips.skipped

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def _ancestor(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or -1."""
        parent = self.spans[index].parent
        while parent >= 0 and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent

    def layer_self_times(self) -> dict[str, dict[str, float]]:
        """Self time per layer (module), by phase."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            out[span.phase][span.name.split(".")[0]] += own
        return {phase: dict(layers) for phase, layers in out.items()}

    def round_eval_windows(self) -> tuple[list[int], list[int]]:
        """Windows forecast by dataset_losses in each gated round, and the distinct (window, model) pairs.

        A round is the stretch of an experiment between the end of one
        metrics row (`runner._round_row`) and the end of the next; the stretch
        before the first row ends is the baseline row and is not counted.
        """
        experiment = "runner.run_augmentation_experiment"
        rows = [(s.end, self._ancestor(i, experiment)) for i, s in enumerate(self.spans) if s.name == "runner._round_row"]
        by_round: dict[tuple[int, int], list[dict]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            exp = self._ancestor(i, experiment)
            if span.name != "metrics.dataset_losses" or exp < 0:
                continue
            finished = sum(1 for end, e in rows if e == exp and end <= span.start)
            if finished >= 1:
                by_round[(exp, finished)].append(span.info)
        totals: list[int] = []
        distinct: list[int] = []
        for key in sorted(by_round):
            infos = by_round[key]
            totals.append(sum(info["windows"] for info in infos))
            distinct.append(len({pair for info in infos for pair in info["pairs"]}))
        return totals, distinct

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, each as (value, unit), over every recorded span."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        info: dict[str, float] = defaultdict(float)
        probe_windows = 0
        for i, span in enumerate(self.spans):
            calls[span.name] += 1
            total[span.name] += span.duration
            for key, value in span.info.items():
                if isinstance(value, (int, float)):
                    info[f"{span.name}.{key}"] += value
            if span.name == "forecaster.forecast_batch" and self._ancestor(i, "augment.zoo_generate") >= 0:
                probe_windows += span.info["windows"]
        fb_windows = info["forecaster.forecast_batch.windows"]
        runner_self = sum(
            own for span, own in zip(self.spans, self.self_times()) if span.name.startswith("runner.")
        )
        eval_windows, distinct = self.round_eval_windows()

        def per_call(name: str) -> float:
            return 1e6 * total[name] / calls[name] if calls[name] else 0.0

        def mean(values: list[int]) -> float:
            return sum(values) / len(values) if values else 0.0

        return {
            "synth.generate.s": (total["synth.generate"], "s"),
            "data.load_triplets.s": (total["data.load_triplets"], "s"),
            "data.build_windows.s": (total["data.build_windows"], "s"),
            "data.windows_binned": (info["data.build_windows.windows_binned"], "count"),
            "data.windows_kept": (info["runner.build_workbench.windows_kept"], "count"),
            "data.stack_points.calls": (calls["data.stack_points"], "count"),
            "data.stack_points.s": (total["data.stack_points"], "s"),
            "forecaster.pretrain_embedding.s": (total["forecaster.pretrain_embedding"], "s"),
            "forecaster.train_step.calls": (calls["forecaster.train_step"], "count"),
            "forecaster.train_step.us_per_call": (per_call("forecaster.train_step"), "us"),
            "forecaster.mean_gradients.us_per_call": (per_call("forecaster.mean_gradients"), "us"),
            "forecaster.dp_train_step.calls": (calls["forecaster.dp_train_step"], "count"),
            "forecaster.dp_train_step.us_per_call": (per_call("forecaster.dp_train_step"), "us"),
            "forecaster.per_sample_gradients.us_per_call": (per_call("forecaster.per_sample_gradients"), "us"),
            "forecaster.clip_per_sample.us_per_call": (per_call("forecaster.clip_per_sample"), "us"),
            "forecaster.forecast_batch.windows": (fb_windows, "count"),
            "forecaster.forecast_batch.us_per_window": (
                1e6 * total["forecaster.forecast_batch"] / fb_windows if fb_windows else 0.0,
                "us",
            ),
            "forecaster.bake_points.s": (total["forecaster.bake_points"], "s"),
            "metrics.dataset_losses.windows": (info["metrics.dataset_losses.windows"], "count"),
            "metrics.dataset_losses.s": (total["metrics.dataset_losses"], "s"),
            "metrics.attack_report.us_per_call": (per_call("metrics.attack_report"), "us"),
            "augment.pca_fit.s": (total["augment.pca_fit"], "s"),
            "augment.zoo_generate.s": (total["augment.zoo_generate"], "s"),
            "augment.zoo_probe_windows": (probe_windows, "count"),
            "augment.zoo_skipped_pairs": (self.skipped_pairs, "count"),
            "augment.mixup_generate.us_per_call": (per_call("augment.mixup_generate"), "us"),
            "runner.build_workbench.s": (total["runner.build_workbench"], "s"),
            "runner.rounds": (info["runner.run_augmentation_experiment.rounds"], "count"),
            "runner.rounds_accepted": (info["runner.run_augmentation_experiment.accepted"], "count"),
            "runner.eval_windows_per_round": (mean(eval_windows), "count"),
            "runner.distinct_eval_windows_per_round": (mean(distinct), "count"),
            "runner.self.s": (runner_self, "s"),
        }
