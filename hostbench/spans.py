"""Benchmark-owned call tracing around the public entry points of ``repro``.

The program is never edited: :func:`install` swaps an entry point for a
wrapper wherever the program (or this benchmark) holds a reference to it
-- a class attribute, or every module global bound to a function -- and
the returned :class:`Patches` puts the originals back.

Two wrapper kinds exist:

- a *span* wrapper (:class:`LayerTracer`) reads the clock around each
  call and accounts it to its layer: calls, inclusive seconds and self
  seconds. Self time is a span's duration minus the union of its child
  spans. Calls on one thread nest strictly, so the children of a span
  never overlap and that union is the sum of their durations; it is
  accumulated on a stack as each child returns. Spans are folded into
  the layer totals as they close rather than stored: one traced DRAM
  pass makes about 3 million of them.
- a *count* wrapper only runs hooks, for the exact counts the timed
  passes check (a few thousand calls per pass at most, no clock reads).

Spans recorded in a forked pool worker never reach the coordinator, so
a fork-time hook switches the tracer off in the child and the wrappers
there fall straight through to the original.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(args, kwargs) -> state`` runs before a call and
#: ``(args, kwargs, result, state)`` after it returns.
PreHook = Callable[[tuple, dict], object]
PostHook = Callable[[tuple, dict, object, object], None]


class Patches:
    """The attribute swaps made by :func:`install`, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _module_sites(func: object, scope: Iterable[str]) -> List[Tuple[object, str]]:
    """Every (module, global name) under ``scope`` bound to ``func``."""
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not any(
            module_name == prefix or module_name.startswith(prefix + ".")
            for prefix in scope
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is func:
                sites.append((module, name))
    return sites


class LayerTracer:
    """Per-layer call counts and self time from span wrappers."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        #: Inclusive seconds per key returned by a wrapper's ``tag``.
        self.tagged: Dict[str, float] = {}
        self.enabled = True
        # One frame per open span: the summed durations of its children.
        self._stack: List[float] = [0.0]

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.incl_s):
            for layer in table:
                table[layer] = 0
        self.tagged.clear()
        self._stack = [0.0]

    def wrap(
        self,
        layer: str,
        func: Callable,
        pre: Optional[PreHook] = None,
        post: Optional[PostHook] = None,
        tag: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        self.incl_s.setdefault(layer, 0.0)
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        tagged = self.tagged
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            stack = tracer._stack
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                calls[layer] += 1
                self_s[layer] += duration - children
                incl_s[layer] += duration
                if tag is not None:
                    key = tag(args)
                    tagged[key] = tagged.get(key, 0.0) + duration
            if post is not None:
                post(args, kwargs, result, state)
            return result

        span.__wrapped__ = func
        return span


def count_wrapper(
    func: Callable, pre: Optional[PreHook], post: PostHook
) -> Callable:
    """A wrapper that only runs the hooks: no clock, no layer accounting."""

    def counted(*args, **kwargs):
        state = pre(args, kwargs) if pre is not None else None
        result = func(*args, **kwargs)
        post(args, kwargs, result, state)
        return result

    counted.__wrapped__ = func
    return counted


#: Module prefixes searched for references to a wrapped module function.
#: The benchmark's own modules call ``repro`` through module attributes.
SCOPE = ("repro",)

_FORK_TRACERS: List[LayerTracer] = []


def _disable_in_child() -> None:
    for tracer in _FORK_TRACERS:
        tracer.enabled = False


def install(
    targets: Iterable[Tuple[str, str]],
    tracer: Optional[LayerTracer] = None,
    hooks: Optional[Dict[str, Tuple[Optional[PreHook], PostHook]]] = None,
    tags: Optional[Dict[str, Callable[[tuple], str]]] = None,
) -> Patches:
    """Wrap every ``(layer, "module:attr")`` target; returns the undo log.

    With ``tracer`` each target gets a span wrapper (plus its hooks and
    tag, if ``hooks``/``tags`` name the target); without one, only the
    targets named in ``hooks`` are wrapped, with count wrappers.
    """
    hooks = hooks or {}
    tags = tags or {}
    patches = Patches()
    if tracer is not None and tracer not in _FORK_TRACERS:
        if not _FORK_TRACERS:
            os.register_at_fork(after_in_child=_disable_in_child)
        _FORK_TRACERS.append(tracer)
    for layer, target in targets:
        pre, post = hooks.get(target, (None, None))
        if tracer is None and post is None:
            continue
        owner, attr = resolve(target)
        original = owner.__dict__[attr]
        if tracer is not None:
            wrapper = tracer.wrap(
                layer, original, pre, post, tags.get(target)
            )
        else:
            wrapper = count_wrapper(original, pre, post)
        if isinstance(owner, type):
            patches.set(owner, attr, wrapper)
        else:
            for module, name in _module_sites(original, SCOPE):
                patches.set(module, name, wrapper)
    return patches


def install_registry(
    registry: Dict[str, Callable],
    names: Iterable[str],
    prefix: str,
    tracer: LayerTracer,
    patches: Patches,
) -> None:
    """Wrap ``registry[name]`` for each name in layer ``<prefix>.<name>``."""
    for name in names:
        patches.set(
            registry, name, tracer.wrap(f"{prefix}.{name}", registry[name])
        )
