"""The layer map: which public entry points of ``repro`` make up each layer.

A layer's ``.calls`` counts calls of its entry points and its ``.self_s``
is the host time spent in them minus the time spent in other traced
entry points they called. Experiment runners are traced one layer per
artifact (``experiments.<name>``), from the runner registry.
"""

from __future__ import annotations

import importlib
import pickle
import sys
from typing import Dict, List, Tuple

from spans import LayerTracer, Patches, install, install_registry

_SCHEDULER_MODULES = tuple(
    f"repro.dram.schedulers.{name}"
    for name in ("base", "fcfs", "frfcfs", "atlas", "tcm", "sms")
)

#: Layers whose entry points are fixed names.
STATIC_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("dram.system", ("repro.dram.system:CMPSystem.run",)),
    ("dram.bank", (
        "repro.dram.bank:ChannelState.earliest_data_start",
        "repro.dram.bank:ChannelState.dispatch",
        "repro.dram.bank:ChannelState.refresh_if_due",
    )),
    ("dram.queue", (
        "repro.dram.queue:ChannelQueue.append",
        "repro.dram.queue:ChannelQueue.remove",
        "repro.dram.queue:ChannelQueue.open_row_hits",
    )),
    ("dram.mapper", ("repro.dram.address:AddressMapper.decode",)),
    ("dram.cores", ("repro.dram.cores:CoreState.next_access",)),
    ("soc.engine", ("repro.soc.engine:CoRunEngine.corun",)),
    ("soc.memsys", ("repro.soc.memsys:SharedMemorySystem.resolve",)),
    ("soc.pu", ("repro.soc.engine:CoRunEngine.profile",)),
    ("core.calibrate", ("repro.core.calibration:build_pccs_parameters",)),
    ("core.construct", ("repro.core.construction:construct_parameters",)),
    ("workloads.calibrator", (
        "repro.workloads.roofline:calibrator_for_bandwidth",
    )),
    ("core.model", (
        "repro.core.model:PCCSModel.relative_speed",
        "repro.core.multiphase:predict_multiphase",
    )),
    ("baselines.gables", ("repro.baselines.gables:GablesModel.relative_speed",)),
    ("profiling.sweep", ("repro.profiling.pressure:sweep_pressure",)),
    ("perf.map", ("repro.perf.executor:parallel_map",)),
    ("perf.simcache.key", ("repro.perf.simcache:SimCache.key_for",)),
    ("perf.simcache.store", ("repro.perf.simcache:SimCache.store",)),
)

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
TIMED_LAYERS = (
    "dram.system", "dram.sched", "dram.bank", "dram.queue", "dram.mapper",
    "dram.cores", "soc.engine", "soc.memsys", "soc.pu", "core.calibrate",
    "core.construct", "workloads.calibrator", "core.model",
    "baselines.gables", "profiling.sweep", "perf.simcache.key",
    "perf.simcache.store", "analysis.render",
)


def scheduler_targets() -> List[str]:
    """``select``/``on_dispatch`` of every policy class that defines one."""
    targets = []
    for module_name in _SCHEDULER_MODULES:
        module = importlib.import_module(module_name)
        for cls_name, cls in sorted(vars(module).items()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            for method in ("select", "on_dispatch"):
                if method in cls.__dict__:
                    targets.append(f"{module_name}:{cls_name}.{method}")
    return targets


def render_targets() -> List[str]:
    """``render`` of every experiment result class."""
    import repro.experiments.runner  # noqa: F401 - loads every experiment

    targets = []
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro.experiments."):
            continue
        for cls_name, cls in sorted(vars(module).items()):
            if (
                isinstance(cls, type)
                and cls.__module__ == module_name
                and "render" in cls.__dict__
            ):
                targets.append(f"{module_name}:{cls_name}.render")
    return targets


def artifact_names() -> List[str]:
    """Every registered experiment except the DRAM study, in run order."""
    from repro.experiments.runner import EXPERIMENTS

    return [name for name in EXPERIMENTS if name != "fig5_table3"]


def all_targets() -> List[Tuple[str, str]]:
    targets = [
        (layer, target)
        for layer, entries in STATIC_LAYERS
        for target in entries
    ]
    targets += [("dram.sched", t) for t in scheduler_targets()]
    targets += [("analysis.render", t) for t in render_targets()]
    return targets


class LayerProbe:
    """Derived per-layer counts gathered by trace-only hooks."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.queue_len_sum = 0
        self.selects = 0
        self.row_hits = 0
        self.dispatches = 0
        self.ipc_bytes = 0

    def hooks(self, targets: List[Tuple[str, str]]) -> Dict[str, tuple]:
        hooks: Dict[str, tuple] = {
            target: (self._on_select, None)
            for layer, target in targets
            if layer == "dram.sched" and target.endswith(".select")
        }
        hooks["repro.dram.bank:ChannelState.dispatch"] = (
            None, self._on_dispatch,
        )
        hooks["repro.perf.executor:parallel_map"] = (None, self._on_map)
        return hooks

    def _on_select(self, args, kwargs):
        self.queue_len_sum += len(args[1])
        self.selects += 1

    def _on_dispatch(self, args, kwargs, result, state):
        self.dispatches += 1
        self.row_hits += bool(args[1].row_hit)

    def _on_map(self, args, kwargs, result, state):
        """Pickled job and result bytes of a map that fans out."""
        from repro.perf.executor import default_max_workers

        jobs = list(args[0])
        workers = kwargs.get("max_workers", args[1] if len(args) > 1 else None)
        if workers is None:
            workers = default_max_workers()
        if workers > 1 and len(jobs) > 1:
            self.ipc_bytes += sum(len(pickle.dumps(job)) for job in jobs)
            self.ipc_bytes += sum(len(pickle.dumps(r)) for r in result)


def install_tracing(
    tracer: LayerTracer, probe: LayerProbe, extra_hooks: Dict[str, tuple]
) -> Patches:
    """Span-wrap every layer's entry points; returns the undo log.

    ``extra_hooks`` are the workload's own count hooks, which keep
    running under tracing so traced and untraced passes are checked
    alike.
    """
    from repro.experiments.runner import EXPERIMENTS

    targets = all_targets()
    hooks = probe.hooks(targets)
    hooks.update(extra_hooks)
    tags = {
        "repro.dram.system:CMPSystem.run": (
            lambda args: f"dram.policy.{args[0].policy_name}"
        ),
    }
    patches = install(targets, tracer=tracer, hooks=hooks, tags=tags)
    install_registry(
        EXPERIMENTS, artifact_names(), "experiments", tracer, patches
    )
    return patches
