"""The benchmark's layer map names entry points the program still has.

``hostbench/spans.py``'s ``install`` swaps each target of
``layers.all_targets()`` through its owner's own ``__dict__``, so a
target that moved to a base class, was renamed or was deleted makes a
traced run (``hostbench/run.py --trace 1``) fail, while untraced runs and
every other test pass.
"""

import sys
from pathlib import Path

import pytest

HOSTBENCH = Path(__file__).resolve().parents[1] / "hostbench"


@pytest.fixture()
def hostbench_modules(monkeypatch):
    """``layers`` and ``spans``, imported the way ``run.py`` does."""
    monkeypatch.syspath_prepend(str(HOSTBENCH))
    import layers
    import spans

    yield layers, spans
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)


def test_every_layer_target_is_in_its_owners_dict(hostbench_modules):
    layers, spans = hostbench_modules
    targets = layers.all_targets()
    assert {layer for layer, _ in targets} >= {
        "dram.system", "dram.sched", "dram.queue", "dram.bank",
        "soc.engine", "soc.memsys", "analysis.render",
    }
    missing = []
    for layer, target in targets:
        owner, attr = spans.resolve(target)
        if attr not in vars(owner):
            missing.append(f"{layer}: {target}")
    assert missing == []
