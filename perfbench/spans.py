"""Per-layer spans for the traced run, recorded from the benchmark's side.

:func:`install` wraps the public functions of each layer (see ``LAYERS``)
before any topology is built. Every name the program bound with ``from ...
import`` is rebound too, by scanning the loaded ``repro`` modules for the
original function object; helpers are rebound in ``HELPERS``, the table the
interpreter dispatches through.

Each wrapper keeps its spans in memory as aggregates: calls and self time
(a span's duration minus the time of the wrapped spans it caused). Self
times of nested layers are disjoint, so their sum over a window is the
share of that window the named layers cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

# (layer name, module, attribute): a class method is "Class.method".
LAYERS = [
    ("kernel.softirq.process_backlogs", "repro.kernel.softirq", "SoftirqSet.process_backlogs"),
    ("ebpf.hooks.run_xdp_burst", "repro.ebpf.hooks", "XdpAttachment.run_xdp_burst"),
    ("kernel.kernel.charge_ns", "repro.kernel.kernel", "Kernel.charge_ns"),
    ("ebpf.vm.run", "repro.ebpf.vm", "VM.run"),
    ("ebpf.jit.execute", "repro.ebpf.jit.engine", "JitEngine.execute"),
    ("fastpath.flowcache.run_xdp", "repro.fastpath.flowcache", "FlowCache.run_xdp"),
    ("kernel.stack.slowpath", "repro.kernel.stack", "Stack.receive_after_xdp"),
    ("netlink.bus.request", "repro.netlink.bus", "NetlinkSocket.request"),
    ("core.graph.build", "repro.core.graph", "TopologyManager.build"),
    ("core.synthesizer.synthesize_interface", "repro.core.synthesizer", "Synthesizer.synthesize_interface"),
    ("core.fpm.library.render_fast_path", "repro.core.fpm.library", "render_fast_path"),
    ("ebpf.minic.compile_c", "repro.ebpf.minic.codegen", "compile_c"),
    ("ebpf.verifier.verify", "repro.ebpf.verifier", "verify"),
    ("ebpf.analysis.interpret", "repro.ebpf.analysis.interp", "interpret"),
    ("ebpf.analysis.lint_program", "repro.ebpf.analysis.lint", "lint_program"),
    ("core.deployer.deploy", "repro.core.deployer", "Deployer.deploy"),
    ("ebpf.loader.load", "repro.ebpf.loader", "Loader.load"),
]

# helper name in repro.ebpf.helpers.HELPERS -> layer name
HELPER_LAYERS = {
    "fib_lookup": "ebpf.helpers.fib_lookup",
    "ipt_lookup": "ebpf.helpers.ipt_lookup",
    "map_lookup": "ebpf.helpers.map_lookup",
}

# modules whose ``from ... import`` bindings must see the wrappers
PRELOAD = [
    "repro.measure.scenarios",
    "repro.core",
    "repro.ebpf",
    "repro.ebpf.analysis",
    "repro.ebpf.analysis.opt.engine",
    "repro.ebpf.jit.compiler",
    "repro.tools",
]


class Spans:
    """In-memory span aggregates keyed by layer name."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.results: Counter = Counter()  # summed int results (frames drained)
        self._children: List[int] = []  # child time of each open span

    def wrap(self, layer: str, fn: Callable, sum_result: bool = False) -> Callable:
        children = self._children
        calls, self_ns, results = self.calls, self.self_ns, self.results
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = children.pop()
                self_ns[layer] += elapsed - child
                calls[layer] += 1
                if children:
                    children[-1] += elapsed
            if sum_result:
                results[layer] += out
            return out

        return span

    def snapshot(self) -> Dict[str, Counter]:
        return {"calls": Counter(self.calls), "self_ns": Counter(self.self_ns),
                "results": Counter(self.results)}

    def since(self, snap: Dict[str, Counter]) -> Dict[str, Counter]:
        return {
            "calls": self.calls - snap["calls"],
            "self_ns": self.self_ns - snap["self_ns"],
            "results": self.results - snap["results"],
        }


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Spans:
    """Wrap every layer in ``LAYERS`` and ``HELPER_LAYERS``; returns the
    aggregate store the wrappers write into."""
    for name in PRELOAD:
        importlib.import_module(name)
    spans = Spans()
    for layer, module_name, attr in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, spans.wrap(layer, original, sum_result=layer.endswith("process_backlogs")))
        else:
            original = getattr(module, attr)
            _rebind(original, spans.wrap(layer, original))
    helpers = importlib.import_module("repro.ebpf.helpers")
    for hid, (name, fn) in list(helpers.HELPERS.items()):
        if name in HELPER_LAYERS:
            helpers.HELPERS[hid] = (name, spans.wrap(HELPER_LAYERS[name], fn))
    return spans


# How a per-layer metric is computed, by the last part of its name: calls,
# or self time in a unit. Self times and calls are totals over the traced
# set-up, the fixed window and, on the data-plane workloads, the command
# tail; ratios are over the window.
_SUFFIX = {"calls": ("calls", 1), "frames": ("calls", 1),
           "self_us": ("self_ns", 1e-3), "self_ms": ("self_ns", 1e-6)}


def layer_values(names, totals, window, window_s: float, overhead: float, rx_frames: int,
                 imbalance: float, flow_cache_stats) -> Dict[str, float]:
    """The value of every metric in ``names`` from span aggregates and
    public state; a name no rule computes raises ``KeyError``."""
    values: Dict[str, float] = {}
    synthesized = totals["calls"]["core.synthesizer.synthesize_interface"]
    for name in names:
        layer, __, field = name.rpartition(".")
        if field in _SUFFIX:
            kind, scale = _SUFFIX[field]
            values[name] = totals[kind][layer] * scale
        elif field == "per_program":
            values[name] = totals["calls"][layer] / synthesized if synthesized else 0.0
    calls = totals["calls"]["kernel.softirq.process_backlogs"]
    values["kernel.softirq.process_backlogs.frames_per_call"] = (
        totals["results"]["kernel.softirq.process_backlogs"] / calls if calls else 0.0
    )
    hits, misses = flow_cache_stats.hits["xdp"], flow_cache_stats.misses["xdp"]
    values["fastpath.flowcache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    passed = window["calls"]["kernel.stack.slowpath"]
    values["kernel.stack.slowpath_ratio"] = passed / rx_frames if rx_frames else 0.0
    values["netsim.cpu.imbalance"] = imbalance
    values["traced.coverage"] = sum(window["self_ns"].values()) / 1e9 / window_s
    values["traced.overhead"] = overhead
    return {name: values[name] for name in names}


def table(totals, window, window_s: float) -> str:
    """The per-layer table written when a traced run ends."""
    lines = [f"{'layer':42s} {'calls':>10s} {'self ms':>10s} {'window %':>9s}"]
    for layer in sorted(totals["calls"], key=lambda k: -totals["self_ns"][k]):
        share = window["self_ns"][layer] / 1e9 / window_s * 100
        lines.append(f"{layer:42s} {totals['calls'][layer]:>10d} "
                     f"{totals['self_ns'][layer] / 1e6:>10.1f} {share:>8.1f}%")
    return "\n".join(lines)
