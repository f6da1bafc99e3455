#!/usr/bin/env python3
"""The LinuxFP reproduction's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Each workload runs in a fresh Python process whose environment has every
``LINUXFP_*`` variable removed, so the default program is measured. With
``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1`` it
wraps each layer's public functions and prints per-layer calls and self
times instead. The last line of a run is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--selftest`` corrupts captured frames on purpose and checks that each
corruption is reported as a failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("router-64b", "gateway-imix", "reconfig")
CHILD_TIMEOUT_S = 170


def declared_metrics(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares: the one list of what a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="check that the checker catches faults")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, SRC)
        return selftest(args.seed) if args.selftest else run_child(args)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LINUXFP_")}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.selftest:
        names = ("gateway-imix",)
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.selftest:
            cmd.append("--selftest")
        try:
            code = subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        if code:
            return code
    return 0


# ------------------------------------------------------------------ child

def accelerators(env) -> dict:
    """Which opt-in accelerators the default program has on, read from its
    public state, so a changed default shows next to its numbers."""
    dut = env.topo.dut
    return {
        "softirq.batching": dut.softirq.batching,
        "kernel.jit.enabled": dut.jit.enabled,
        "kernel.flow_cache.enabled": dut.flow_cache.enabled,
        "synthesizer.optimize": env.topo.controller.synthesizer.optimize,
    }


def twin_run(w, ops):
    """Replay ``ops`` on a plain-Linux twin; its captures and MACs."""
    import workloads as wl

    twin = w.setup("linux")
    caps = wl.Captures.bound_to(twin.topo)
    w.replay(twin, ops)
    return caps, wl.mac_table(twin.topo)


def check(w, env, caps, win):
    """Verify the window's operations against the reference model and the
    plain-Linux twin; ``correct`` also needs every captured frame accounted
    for and the DUT's ledger settled."""
    import workloads as wl

    verdict = wl.verify(win.ops, caps, wl.mac_table(env.topo), *twin_run(w, win.ops))
    correct = verdict.strays == 0 and wl.ledger_settled(env.topo.dut)
    return verdict, correct


def report(name, seed, accel, verdict, correct, metrics) -> None:
    print(f"workload {name} seed {seed}")
    print(f"accelerators {json.dumps(accel, sort_keys=True)}")
    print(f"operations attempted {verdict.attempted} failed {verdict.failed} "
          f"by reason {json.dumps(dict(verdict.reasons), sort_keys=True)} "
          f"unattributed frames {verdict.strays}")
    for key, entry in metrics.items():
        print(f"  {key:48s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))


def run_child(args) -> int:
    import workloads as wl

    w = wl.WORKLOADS[args.workload](args.seed)
    clock = wl.HostClock()
    if args.trace:
        return run_traced(w, args, clock)
    setup_s = []
    clock.probe()
    for __ in range(wl.SETUP_REPEATS):
        start = time.perf_counter()
        env = w.setup("linuxfp")
        setup_s.append(clock.piece(time.perf_counter() - start))
        clock.probe()
    caps = wl.Captures.bound_to(env.topo)
    gc.collect()
    win = w.window(env, clock, args.seconds, w.min_work)
    verdict, correct = check(w, env, caps, win)
    del caps.sink[:], caps.source[:], win.ops[:]
    gc.collect()  # the checked frames would otherwise be collected mid-command
    fast, slow = (win.fast_ms, win.slow_ms) if win.slow_ms else w.commands(env, clock)
    values = {
        "setup_s": statistics.median(clock.scaled(setup_s)),
        "host_kpps": win.host_kpps,
        "sim_mpps": win.sim_mpps,
        "eval_ms_p50": statistics.median(fast),
        "resynth_ms_p50": statistics.median(slow),
        "resynth_ms_p90": wl.percentile(slow, 90),
        "peak_rss_mib": win.peak_rss_mib,
    }
    print(f"unscaled: host_kpps {win.raw_kpps:.4f}, setup_s {statistics.median(t for t, __ in setup_s):.4f}; "
          f"host-speed probes {len(clock.samples)}, mean {statistics.mean(clock.samples) * 1e3:.2f} ms "
          f"(reference {wl.HostClock.REF_S * 1e3:.0f} ms)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics("end_to_end").items()}
    report(w.name, args.seed, accelerators(env), verdict, correct, metrics)
    return 0


def run_traced(w, args, clock) -> int:
    """Per-layer numbers over a fixed amount of work, so call counts repeat
    exactly for a seed. The same work runs untraced first; the ratio of
    the two windows' scaled host rates is the tracing overhead."""
    import spans as sp
    import workloads as wl

    env = w.setup("linuxfp")
    wl.Captures.bound_to(env.topo)
    plain = w.window(env, clock, 0, 0, max_work=w.trace_budget)

    store = sp.install()
    env = w.setup("linuxfp")
    caps = wl.Captures.bound_to(env.topo)
    marks = {}

    def on_open():
        marks["spans"] = store.snapshot()
        marks["rx"] = env.topo.dut.stack.rx_packets

    win = w.window(env, clock, 0, 0, max_work=w.trace_budget, on_open=on_open)
    in_window = store.since(marks["spans"])
    rx = env.topo.dut.stack.rx_packets - marks["rx"]
    if not win.slow_ms:
        w.commands(env, clock, cycles=wl.MIN_SLOW_SAMPLES)
    totals = store.snapshot()
    declared = declared_metrics("per_layer")
    values = sp.layer_values(declared, totals, in_window, win.wall_s, plain.host_kpps / win.host_kpps,
                             rx, win.imbalance, env.topo.dut.flow_cache.stats)
    verdict, correct = check(w, env, caps, win)
    print(sp.table(totals, in_window, win.wall_s))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    report(w.name, args.seed, accelerators(env), verdict, correct, metrics)
    return 0


def selftest(seed: int) -> int:
    """Corrupt one captured frame (TTL, checksum, MAC) or one fate at a
    time; each must surface as exactly one failed operation more than the
    clean captures give."""
    import packets as pk
    import workloads as wl

    w = wl.GatewayImix(seed)
    env = w.setup("linuxfp")
    caps = wl.Captures.bound_to(env.topo)
    win = w.window(env, wl.HostClock(), 0, w.round_frames)
    twin_caps, twin_macs = twin_run(w, win.ops)
    macs = wl.mac_table(env.topo)
    dropped = next(op for op in win.ops if op.fate == wl.DROP)
    clean = wl.verify(win.ops, caps, macs, twin_caps, twin_macs)
    passing = {op.key for op in win.ops if not op.case}  # built-in cases may fail already
    first = next(i for i, frame in enumerate(caps.sink) if pk.output_key(frame) in passing)

    def flip(index):
        def corrupt(c):
            frame = bytearray(c.sink[first])
            frame[index] ^= 0x01
            c.sink[first] = bytes(frame)
        return corrupt

    print(f"clean captures: attempted {clean.attempted} failed {clean.failed} {dict(clean.reasons)}")
    cases = [
        ("wrong TTL", flip(22), 1),
        ("wrong IP checksum", flip(25), 1),
        ("wrong destination MAC", flip(0), 1),
        ("forwarded frame lost", lambda c: c.sink.pop(first), 1),
        ("blacklisted frame forwarded", lambda c: c.sink.append(
            pk.forwarded(macs["dut_in"] + macs["source"] + dropped.body,
                         macs["dut_out"], macs["sink"], wl.MTU)[0]), 1),
    ]
    ok = clean.strays == 0
    for label, corrupt, extra in cases:
        want = clean.failed + extra
        copy = wl.Captures(list(caps.sink), list(caps.source))
        corrupt(copy)
        verdict = wl.verify(win.ops, copy, macs, twin_caps, twin_macs)
        good = verdict.failed == want and verdict.strays == 0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label:30s} attempted {verdict.attempted} "
              f"failed {verdict.failed} (want {want}) {dict(verdict.reasons)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
