"""In-memory span tracer that wraps tapkit's public functions from outside.

Every public function of each layer module is replaced by a wrapper that
records a span (name, start, end, parent). The wrapper is installed where
the function is defined *and* at every import site, including module-level
dicts such as ``pipeline.STAGES``: ``pipeline.py`` binds names directly
(``from .metrics import mean_ap``), so patching only the defining module
would miss those calls. The engine's layer classes are patched at the class,
so ``Conv1d.forward``/``backward`` spans carry the conv's role in the anchor
net (stem, down or head) and count multiply-accumulates from the shapes.

``core`` gets no spans: scalar ``tiou`` runs millions of times per refine and
a wrapper there would swamp the trace. Its time appears as self time of the
callers in ``fusion``, ``metrics`` and ``ssad``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import weakref
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "pipeline", "ingest", "engine", "ssad", "tag", "fusion", "metrics")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_mark = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, lo_mark), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                lo_mark = hi
        out.append(s.end - s.start - covered)
    return out


def conv_macs(x_shape: tuple[int, ...], w_shape: tuple[int, ...], stride: int, pad: int) -> int:
    """Multiply-accumulates of one conv1d forward: N * C_out * T_out * C_in * k."""
    n, _, t = x_shape
    out_ch, in_ch, kernel = w_shape
    t_out = (t + 2 * pad - kernel) // stride + 1
    return n * out_ch * t_out * in_ch * kernel


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(path) -> int:
    return os.path.getsize(path)


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name, hook=None):
        """name is a string or a callable(args) -> string, evaluated per call."""
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        fixed = tracer._name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_idx.append(fixed if fixed is not None else tracer._name_id(name(args)))
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def spans(self) -> list[Span]:
        return [
            Span(self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_idx, self.starts, self.ends, self.parents)
        ]

    # -- installation

    def _patch(self, owner, key: str, new) -> None:
        """Rebind owner.key (or owner[key] for a dict), remembering the original."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"tapkit.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                span_name = f"{layer}.{name}"
                wrappers[id(obj)] = self._wrap(obj, span_name, hooks.get(span_name))
        # every binding of an original function object: definitions, import
        # sites under any alias, and module-level dispatch dicts
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tapkit" or mod_name.startswith("tapkit.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrappers:
                            self._patch(obj, key, wrappers[id(value)])
        self._install_engine_classes()

    def _install_engine_classes(self) -> None:
        from tapkit import engine, ssad

        roles = self._roles

        def role_of(args) -> str:
            return roles.get(args[0], "other")

        self._patch(engine.Conv1d, "forward", self._wrap(
            engine.Conv1d.forward, lambda a: f"engine.conv1d.forward.{role_of(a)}", _conv_forward_hook))
        self._patch(engine.Conv1d, "backward", self._wrap(
            engine.Conv1d.backward, lambda a: f"engine.conv1d.backward.{role_of(a)}", _conv_backward_hook))
        self._patch(engine.Dense, "forward", self._wrap(engine.Dense.forward, "engine.dense.forward"))
        self._patch(engine.Dense, "backward", self._wrap(engine.Dense.backward, "engine.dense.backward"))
        self._patch(engine.Adam, "step", self._wrap(engine.Adam.step, "engine.adam.step"))

        original_init = ssad.SsadModel.__init__

        @functools.wraps(original_init)
        def init_with_roles(model, *args, **kwargs):
            original_init(model, *args, **kwargs)
            # convs of a model laid out otherwise are traced as "other"
            groups = (("stem", [getattr(model, "stem", [])]), ("down", getattr(model, "downs", [])),
                      ("head", getattr(model, "heads", [])))
            for role, blocks in groups:
                for block in blocks:
                    for layer in block:
                        if isinstance(layer, engine.Conv1d):
                            roles[layer] = role

        self._patch(ssad.SsadModel, "__init__", init_with_roles)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- domain counters, measured at the layer boundary

    @staticmethod
    def _hooks():
        from tapkit.core import Source

        def refine(counts, args, kwargs, result):
            p_ssad, p_tag = args[0], args[1]
            counts["fusion.refine.pairs"] += len(p_ssad) * len(p_tag)
            counts["fusion.refine.grouped_in"] += len(p_tag)
            counts["fusion.refine.replaced"] += sum(p.source == Source.REFINED for p in result)

        def nms(counts, args, kwargs, result):
            counts["fusion.nms.in"] += len(args[0])
            counts["fusion.nms.kept"] += len(result)

        def tag_proposals(counts, args, kwargs, result):
            counts["tag.regions"] += len(result)

        def reader(key):
            def hook(counts, args, kwargs, result):
                counts[key] += _size(_arg(args, kwargs, 0, "path"))
            return hook

        def writer(key):
            def hook(counts, args, kwargs, result):
                counts[key] += _size(_arg(args, kwargs, 1, "path"))
            return hook

        def write_manifest(counts, args, kwargs, result):
            artifacts = _arg(args, kwargs, 2, "artifacts")
            counts["pipeline.write_manifest.bytes_hashed"] += sum(_size(p) for p in artifacts)

        return {
            "fusion.refine": refine,
            "fusion.nms": nms,
            "tag.tag_proposals": tag_proposals,
            "ingest.read_results": reader("ingest.read_results.bytes"),
            "ingest.load_features": reader("ingest.load_features.bytes"),
            "ingest.write_results": writer("ingest.write_results.bytes"),
            "ingest.save_features": writer("ingest.save_features.bytes"),
            "pipeline.write_manifest": write_manifest,
        }


def _conv_forward_hook(counts, args, kwargs, result):
    layer, x = args[0], args[1]
    counts["engine.conv1d.forward.macs"] += conv_macs(
        x.shape, layer.w.shape, layer.spec.stride, layer.spec.pad)


def _conv_backward_hook(counts, args, kwargs, result):
    # grad_w and grad_x are one matmul each, both the size of the forward
    layer = args[0]
    counts["engine.conv1d.backward.macs"] += 2 * conv_macs(
        layer._x.shape, layer.w.shape, layer.spec.stride, layer.spec.pad)
