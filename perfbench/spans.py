"""Outside-in layer timing for one skybeam process.

`install()` replaces each function named in LAYERS with a timing wrapper,
both in the module that defines it and under every alias bound elsewhere in
the package by `from .x import f` (for example `evaluation.build_channels`
and `cli.run_ega`). Methods are replaced on their class. A name that no
longer exists is reported as missing instead of failing the run.

Per name the tracer keeps the call count, the inclusive time and the self
time (inclusive minus the time of wrapped calls made inside it). It
aggregates in memory rather than storing one span per call, because the
fitness layer alone makes ~200k calls per operation. It assumes one thread,
which holds for the CLI's default `--threads 1`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

# (module, qualified name) of every wrapped layer boundary; cli.main is the root.
LAYERS = (
    ("skybeam.cli", "main"),
    ("skybeam.scenario", "scenario_from_config"),
    ("skybeam.scenario", "place_ground_users"),
    ("skybeam.scenario", "place_uavs"),
    ("skybeam.codebook", "build_ssb_codebook"),
    ("skybeam.codebook", "build_dl_codebook"),
    ("skybeam.channel", "build_channels"),
    ("skybeam.channel", "stack_highway_channels"),
    ("skybeam.segment_metric", "assign_segments"),
    ("skybeam.association", "baseline_plan"),
    ("skybeam.association", "rsrp_table"),
    ("skybeam.association", "select_serving_all"),
    ("skybeam.association", "coverage_sinr_all"),
    ("skybeam.genetic", "select_frozen_slots"),
    ("skybeam.genetic", "FitnessEvaluator.__init__"),
    ("skybeam.genetic", "FitnessEvaluator.evaluate_detailed"),
    ("skybeam.genetic", "run"),
    ("skybeam.evaluation", "evaluate_snapshot"),
    ("skybeam.evaluation", "data_phase"),
    ("skybeam.evaluation", "traffic_sweep"),
)


class Tracer:
    """Call counts, inclusive and self nanoseconds per wrapped name."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.missing: list[str] = []
        self.links = 0  # entities x sectors over all build_channels calls
        self.rows = 0
        self.repeat_rows = 0
        self._built: set = set()
        self._stack: list[list[int]] = []  # child-time accumulator per open span

    def _wrap(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _observe_build_channels(self, scenario, entities, snapshot=0, stream_tag="ue"):
        """Count links and rows whose (stream tag, snapshot, position) was built before."""
        self.links += len(entities) * len(scenario.sectors)
        for user in entities:
            key = (stream_tag, snapshot, tuple(user.position_3d_m))
            self.rows += 1
            if key in self._built:
                self.repeat_rows += 1
            else:
                self._built.add(key)

    def install(self) -> None:
        """Wrap every name in LAYERS; all skybeam modules must be imported first."""
        package = [m for n, m in list(sys.modules.items()) if n == "skybeam" or n.startswith("skybeam.")]
        for module_name, qualname in LAYERS:
            name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            observe = self._observe_build_channels if name == "channel.build_channels" else None
            wrapper = self._wrap(name, original, observe)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for module in package:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)

    def report(self) -> dict:
        return {
            "spans": {n: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9} for n, (c, t, s) in self.stats.items()},
            "missing": self.missing,
            "links": self.links,
            "rows": self.rows,
            "repeat_rows": self.repeat_rows,
        }
