"""The benchmark's workloads, driven through the program's public entry points.

``router-64b`` and ``gateway-imix`` replay frames in closed-loop bursts of
64 through ``NIC.receive_burst`` on the DUT's ingress; ``reconfig`` drives a
seeded script of iproute2/brctl/iptables commands, each followed by one probe
frame. The sink and source NICs are bound to append-only captures, so a timed
window holds only DUT work; captures are checked after the window closes,
against :mod:`packets` (the reference model) and against a twin run of the
same inputs on the plain ``linux`` platform.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import packets as pk
from repro.measure.scenarios import setup_gateway, setup_router
from repro.tools import brctl, ip, iptables

BURST = 64  # frames per NAPI-sized arrival
PROBE_FRAMES = 256  # frames between two host-speed probes of a window
SETUP_REPEATS = 15  # set-ups per run; setup_s is their median
MIN_SLOW_SAMPLES = 100  # graph-changing commands per run: 10 lie beyond p90
TAIL_SECONDS = 15.0  # least wall time of a data-plane workload's command tail

SOURCE_IP = pk.ip_int("10.0.1.2")
ROUTER_IP = pk.ip_int("10.0.1.1")  # the DUT's ingress address
NEXT_HOP = "10.0.2.2"
PREFIXES = [(pk.ip_int(f"10.{100 + i}.0.0"), 16) for i in range(50)]
BLACKLIST = [pk.ip_int(f"172.16.{i // 250}.{i % 250 + 1}") for i in range(100)]
MTU = 1500

FWD, DROP, TTL, UNREACH = "forward", "drop", "ttl-exceeded", "unreachable"
TOOLS: Dict[str, Callable] = {"ip": ip, "brctl": brctl, "iptables": iptables}


def dotted(addr: int) -> str:
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))


def mac_table(topo) -> Dict[str, bytes]:
    """The topology's MACs by role. They come from a per-process counter,
    so two topologies never share one."""
    return {
        "source": topo.src_eth.mac.to_bytes(),
        "dut_in": topo.dut_in.mac.to_bytes(),
        "dut_out": topo.dut_out.mac.to_bytes(),
        "sink": topo.sink_eth.mac.to_bytes(),
    }


FEFF_CASE = "input header checksum 0xFEFF"


def udp_body(src: int, dst: int, sport: int, dport: int, ttl: int, ident: int, size: int) -> bytes:
    """A UDP frame from the ethertype on (each topology adds its own MACs).

    A forwarded header whose checksum is 0xFEFF is a case of its own: its
    TTL decrement must give the checksum 0x0000, and the program writes
    0xFFFF there (see ``CHANGES.md``). The data-plane workloads build a
    fixed number of them into every round with :func:`feff_body`; a drawn
    header that lands on 0xFEFF is built with the next TTL instead, so the
    case's share of the operations is the same on every seed and run length.
    """
    zero = b"\x00" * 6
    frame = pk.udp_frame(zero, zero, src, dst, sport, dport, ttl, ident, size)
    if ttl > 1 and frame[24:26] == b"\xfe\xff":
        frame = pk.udp_frame(zero, zero, src, dst, sport, dport, ttl + 1, ident, size)
    return frame[12:]


def feff_dst(src: int, net: int, ttl: int, ident: int, size: int) -> int:
    """The destination inside the /16 ``net`` whose UDP header of ``size``
    bytes has the IPv4 header checksum 0xFEFF: the low 16 bits of the
    address are the one word of the header left free to set the sum."""
    head = pk.ip_header(src, net, ident, ttl, pk.IPPROTO_UDP, size - pk.ETH_HLEN)
    # the sum of the other words is ~check; adding low16 must make it 0x0100
    low16 = (0x0100 - (~int.from_bytes(head[10:12], "big") & 0xFFFF)) % 0xFFFF
    return net | low16


def feff_body(src: int, dst: int, sport: int, dport: int, ttl: int, ident: int, size: int) -> bytes:
    """:func:`udp_body` for a destination from :func:`feff_dst`."""
    zero = b"\x00" * 6
    frame = pk.udp_frame(zero, zero, src, dst, sport, dport, ttl, ident, size)
    assert frame[24:26] == b"\xfe\xff", "feff_dst gave another checksum"
    return frame[12:]


class HostClock:
    """Host time scaled to a fixed reference speed of the host.

    The speed of a shared host drifts by up to ±25% within seconds (frequency
    changes, neighbours on the same cores), moving every host time taken in
    that stretch together. Between timed pieces of work the benchmark runs a
    fixed task of its own — the reference model forwarding and keying 48
    frames, code the program under test cannot change — and scales each
    piece by ``REF_S`` over the mean task time of the probes around it: a
    figure reads as if the task had taken ``REF_S``, its typical time on the
    2-CPU development host.
    """

    REF_S = 0.020
    REPEAT = 60
    NEAR = 3  # probes on each side of a piece that set its scale

    def __init__(self) -> None:
        zero = b"\x00" * 6
        self._frames = [
            pk.udp_frame(zero, zero, SOURCE_IP, PREFIXES[i % 50][0] | i, 1024 + i, 9, 64, i,
                         (64, 594, 1514)[i % 3])
            for i in range(48)
        ]
        self.samples: List[float] = []

    def probe(self) -> None:
        zero = b"\x00" * 6
        start = time.perf_counter()
        for __ in range(self.REPEAT):
            for frame in self._frames:
                for out in pk.forwarded(frame, zero, zero, 1400):
                    pk.output_key(out)
        self.samples.append(time.perf_counter() - start)

    def piece(self, seconds: float) -> Tuple[float, int]:
        """A timed piece of work, taken after the latest probe."""
        return (seconds, len(self.samples))

    def scaled(self, pieces: List[Tuple[float, int]]) -> List[float]:
        """Each piece's seconds at the reference speed; call once the probe
        after the last piece has run."""
        out = []
        for seconds, mark in pieces:
            near = self.samples[max(0, mark - self.NEAR):mark + self.NEAR + 1]
            out.append(seconds * self.REF_S / statistics.mean(near))
        return out


@dataclass
class Captures:
    """Frames that left the DUT toward the sink and toward the source."""

    sink: List[bytes] = field(default_factory=list)
    source: List[bytes] = field(default_factory=list)

    @classmethod
    def bound_to(cls, topo) -> "Captures":
        """Append-only captures bound to ``topo``'s sink and source NICs."""
        caps = cls()
        topo.sink_eth.nic.attach(lambda frame, queue: caps.sink.append(frame))
        topo.src_eth.nic.attach(lambda frame, queue: caps.source.append(frame))
        return caps


class Op(NamedTuple):
    """One checked operation: an offered frame (a command's probe, on
    ``reconfig``) and the fate the reference model gives it. A tuple of
    plain values, so the garbage collector stops tracking it and a long
    window's operations add no collection work."""

    key: pk.Key
    body: bytes  # the frame from the ethertype on; MACs are per topology
    fate: str
    mtu: int = MTU
    command: str = ""
    case: str = ""  # named in a failure's reason: the script step before a probe, or a built-in case


class Model:
    """The reference router: the workload's own routes, blacklist and MTU."""

    def __init__(self, blacklist=()) -> None:
        self.routes: List[Tuple[int, int]] = list(PREFIXES)
        self.blacklist = set(blacklist)
        self.mtu = MTU

    def op(self, body: bytes, command: str = "", case: str = "") -> Op:
        ip_hdr = body[2:]
        src, dst = int.from_bytes(ip_hdr[12:16], "big"), int.from_bytes(ip_hdr[16:20], "big")
        key = (src, dst, int.from_bytes(ip_hdr[4:6], "big"))
        # the order Linux applies: route lookup, TTL, FORWARD hook, MTU
        if pk.lpm(self.routes, dst) is None:
            fate = UNREACH
        elif ip_hdr[8] <= 1:
            fate = TTL
        elif src in self.blacklist:
            fate = DROP
        else:
            fate = FWD
        return Op(key, body, fate, self.mtu, command, case)


def expected(op: Op, macs: Dict[str, bytes]) -> List[Tuple[str, object]]:
    """The outputs ``op`` owes: (capture, exact bytes) for forwarded frames,
    (capture, (icmp type, code)) for ICMP errors."""
    if op.fate == FWD:
        frame = macs["dut_in"] + macs["source"] + op.body
        return [("sink", out) for out in pk.forwarded(frame, macs["dut_out"], macs["sink"], op.mtu)]
    if op.fate == TTL:
        return [("source", (pk.ICMP_TIME_EXCEEDED, 0))]
    if op.fate == UNREACH:
        return [("source", (pk.ICMP_DEST_UNREACH, 0))]
    return []


def _difference(got: bytes, want: bytes) -> str:
    if len(got) != len(want):
        return "length"
    if got[:12] != want[:12]:
        return "mac"
    if got[22] != want[22]:
        return "ttl"
    if got[24:26] != want[24:26]:
        return "ip checksum"
    return "bytes"


def reference_problem(op: Op, got: List[Tuple[str, bytes]], macs: Dict[str, bytes]) -> Optional[str]:
    want = expected(op, macs)
    if [where for where, __ in got] != [where for where, __ in want]:
        return "fate"
    frame = macs["dut_in"] + macs["source"] + op.body
    for (__, out), (__, spec) in zip(got, want):
        if isinstance(spec, bytes):
            if out != spec:
                return _difference(out, spec)
        else:
            problem = pk.icmp_error_problem(out, frame, spec[0], spec[1], ROUTER_IP,
                                            macs["dut_in"], macs["source"])
            if problem:
                return problem
    return None


def attribute(caps: Captures) -> Dict[Optional[pk.Key], List[Tuple[str, bytes]]]:
    """Captured frames by the key of the datagram they answer, in order."""
    out: Dict[Optional[pk.Key], List[Tuple[str, bytes]]] = {}
    for where, frames in (("sink", caps.sink), ("source", caps.source)):
        for frame in frames:
            out.setdefault(pk.output_key(frame), []).append((where, frame))
    return out


def _normalized(got: List[Tuple[str, bytes]], macs: Dict[str, bytes]) -> List[Tuple[str, bytes]]:
    """Frames with each topology MAC replaced by its role, so captures of two
    topologies compare byte for byte."""
    role = {mac: b"<mac%d>" % i for i, mac in enumerate(macs.values())}
    return [(where, role.get(f[0:6], f[0:6]) + role.get(f[6:12], f[6:12]) + f[12:]) for where, f in got]


@dataclass
class Verdict:
    attempted: int
    failed: int
    reasons: Counter
    strays: int  # captured frames no operation accounts for


def verify(ops: List[Op], caps: Captures, macs: Dict[str, bytes],
           twin_caps: Captures, twin_macs: Dict[str, bytes]) -> Verdict:
    """Check every operation against the reference model and the twin."""
    got, twin = attribute(caps), attribute(twin_caps)
    reasons: Counter = Counter()
    for op in ops:
        mine, theirs = got.pop(op.key, []), twin.pop(op.key, [])
        problem = reference_problem(op, mine, macs)
        if problem is None and _normalized(mine, macs) != _normalized(theirs, twin_macs):
            problem = "twin mismatch"
        if problem:
            reasons[f"{problem}: {op.case}" if op.case else problem] += 1
    strays = sum(len(frames) for frames in got.values())
    return Verdict(len(ops), sum(reasons.values()), reasons, strays)


def ledger_settled(kernel) -> bool:
    """The DUT's conservation ledger: rx + tx_local == settled + pending."""
    stack = kernel.stack
    return stack.rx_packets + stack.tx_local_packets == stack.settled + stack.pending_packets()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of ``samples``."""
    return statistics.quantiles(samples, n=100)[q - 1]


@dataclass
class Env:
    """A built topology and, on ``reconfig``, the reference model of its
    configuration as the script changes it."""

    topo: object
    model: Model = field(default_factory=Model)


@dataclass
class Window:
    """What one timed window produced."""

    ops: List[Op]
    host_kpps: float  # offered frames per host second at the reference speed
    raw_kpps: float  # the same, unscaled
    sim_mpps: float
    wall_s: float  # host time inside the measured calls, unscaled
    fast_ms: List[float] = field(default_factory=list)  # graph-unchanged commands, scaled
    slow_ms: List[float] = field(default_factory=list)  # graph-changing commands, scaled
    imbalance: float = 0.0
    # peak RSS once the fixed sim_mpps work is done: a point every run
    # reaches, so the figure does not grow with the host's speed
    peak_rss_mib: float = 0.0


# ---------------------------------------------------------------- commands

def rule_handle(kernel, src: str) -> str:
    """The handle of the FORWARD rule dropping ``src`` (what ``iptables -D``
    with a rule spec looks up before deleting)."""
    for line in iptables(kernel, "-L FORWARD"):
        if f" -s {src}/32 " in line:
            return line[1:line.index("]")]
    raise LookupError(f"no FORWARD rule for {src}")


def run_command(kernel, command: str) -> float:
    """Run one management command; returns its wall time in seconds,
    through to the deployed fast path (the controller reacts inline)."""
    tool, args = command.split(" ", 1)
    if args.startswith("-D FORWARD -s "):
        args = "-D FORWARD " + rule_handle(kernel, args.split()[3][:-3])
    start = time.perf_counter()
    TOOLS[tool](kernel, args)
    return time.perf_counter() - start


def add_bridge(topo, veths: int) -> None:
    """br0 plus ``veths`` veth pairs, all up, through iproute2."""
    dut = topo.dut
    ip(dut, "link add br0 type bridge")
    ip(dut, "link set br0 up")
    for i in range(veths):
        ip(dut, f"link add veth{i} type veth peer name veth{i}p")
        ip(dut, f"link set veth{i} up")
        ip(dut, f"link set veth{i}p up")


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""
    cores = 1
    min_work = 0  # least work of a timed window (frames or cycles)
    trace_budget = 0  # fixed work of the traced window (frames or cycles)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self, platform: str) -> Env:
        raise NotImplementedError

    def window(self, env: Env, clock: HostClock, seconds: float, min_work: int,
               max_work: Optional[int] = None, on_open: Callable[[], None] = lambda: None) -> Window:
        """Run the timed window, probing ``clock`` between timed pieces;
        ``on_open`` is called as timing begins."""
        raise NotImplementedError

    def replay(self, env: Env, ops: List[Op]) -> None:
        """Offer ``ops`` to ``env`` exactly as the window offered them."""
        raise NotImplementedError

    def commands(self, env: Env, clock: HostClock,
                 cycles: Optional[int] = None) -> Tuple[List[float], List[float]]:
        """Command wall times (graph-unchanged, graph-changing) in ms, scaled
        by ``clock``, for a workload whose window holds no commands; exactly
        ``cycles`` command cycles when given (the traced run's fixed work)."""
        raise NotImplementedError


class DataPlane(Workload):
    """Closed-loop replay of seeded frames in bursts of :data:`BURST`."""

    sim_frames = 0  # frames after warm-up over which sim_mpps is taken
    round_frames = 0
    blacklist: Tuple[int, ...] = ()  # sources the DUT's FORWARD chain drops

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.bodies: List[Tuple[bytes, str]] = []  # (body, case) per frame
        self.rounds = 0
        self.model = Model(self.blacklist)
        self.tail_rng = random.Random(seed ^ 0x5EED)

    def make_round(self, index: int) -> List[Tuple[bytes, str]]:
        """The frames of round ``index`` as (body, case) pairs."""
        raise NotImplementedError

    def body(self, i: int) -> Tuple[bytes, str]:
        while i >= len(self.bodies):
            self.bodies.extend(self.make_round(self.rounds))
            self.rounds += 1
        return self.bodies[i]

    def window(self, env, clock, seconds, min_work, max_work=None, on_open=lambda: None):
        """Warm up on one round, then offer bursts until ``seconds`` of host
        time inside ``receive_burst`` have passed and at least ``min_work``
        frames were timed (or exactly ``max_work`` frames, for the traced
        run), ending on a whole round so that every run offers each round's
        cases in the same shares."""
        topo = env.topo
        nic, cpus = topo.dut_in.nic, topo.dut.cpus
        prefix = topo.dut_in.mac.to_bytes() + topo.src_eth.mac.to_bytes()
        ops: List[Op] = []

        def burst(start: int) -> List[bytes]:
            frames = []
            for i in range(start, start + BURST):
                body, case = self.body(i)
                ops.append(self.model.op(body, case=case))
                frames.append(prefix + body)
            return frames

        for start in range(0, self.round_frames, BURST):
            nic.receive_burst(burst(start))
        clock.probe()
        cpus.reset_busy()
        on_open()
        sim_busy_ns = imbalance = rss = 0.0
        durations: List[Tuple[float, int]] = []
        timed = 0.0
        offset = self.round_frames
        while True:
            done = len(durations) * BURST
            if done % self.round_frames == 0:  # whole rounds only
                if max_work is not None and done >= max_work:
                    break
                if max_work is None and timed >= seconds and done >= min_work:
                    break
            frames = burst(offset + done)
            start = time.perf_counter()
            nic.receive_burst(frames)
            elapsed = time.perf_counter() - start
            durations.append(clock.piece(elapsed))
            timed += elapsed
            if done + BURST == self.sim_frames:
                sim_busy_ns, imbalance, rss = cpus.max_busy_ns, cpus.imbalance(), peak_rss_mib()
            if (done + BURST) % PROBE_FRAMES == 0:
                clock.probe()
        clock.probe()
        frames = len(durations) * BURST
        return Window(
            ops=ops,
            host_kpps=frames / sum(clock.scaled(durations)) / 1e3,
            raw_kpps=frames / timed / 1e3,
            sim_mpps=self.sim_frames / sim_busy_ns * 1e3 if sim_busy_ns else 0.0,
            wall_s=timed,
            imbalance=imbalance if sim_busy_ns else cpus.imbalance(),
            peak_rss_mib=rss,
        )

    def replay(self, env, ops):
        topo = env.topo
        prefix = topo.dut_in.mac.to_bytes() + topo.src_eth.mac.to_bytes()
        for i in range(0, len(ops), BURST):
            topo.dut_in.nic.receive_burst([prefix + op.body for op in ops[i:i + BURST]])

    def commands(self, env, clock, cycles=None):
        """Reaction times outside the window, one command kind per class so
        that neither p50 falls between two kinds: ``brctl delif br0 veth0``
        (graph changed) and ``ip route del`` of a seeded /24 (graph
        unchanged). The ``brctl addif`` and ``ip route add`` before them are
        not timed; each runs the code paths of the timed command's kind
        first, so no timed command starts with the caches another kind, or
        the host-speed probe, left behind. Runs until
        :data:`MIN_SLOW_SAMPLES` and :data:`TAIL_SECONDS`."""
        dut = env.topo.dut
        add_bridge(env.topo, 1)
        fast, slow = [], []
        clock.probe()
        begin = time.perf_counter()
        while (len(slow) < cycles if cycles is not None else
               len(slow) < MIN_SLOW_SAMPLES or time.perf_counter() - begin < TAIL_SECONDS):
            net = f"10.{200 + self.tail_rng.randrange(50)}.{self.tail_rng.randrange(256)}.0/24"
            run_command(dut, "brctl addif br0 veth0")
            slow.append(clock.piece(run_command(dut, "brctl delif br0 veth0")))
            run_command(dut, f"ip route add {net} via {NEXT_HOP}")
            fast.append(clock.piece(run_command(dut, f"ip route del {net}")))
            clock.probe()
        return [t * 1e3 for t in clock.scaled(fast)], [t * 1e3 for t in clock.scaled(slow)]


class Router64(DataPlane):
    """The paper's virtual router: 50 prefixes, 1 CPU, 64-byte UDP. A round
    is 256 frames: 255 flows replayed round-robin (flows repeat, so a
    per-flow cache can pay) and, at a seeded place, one frame to a fresh
    destination whose header checksum is 0xFEFF (:data:`FEFF_CASE`)."""

    name = "router-64b"
    cores = 1
    sim_frames = min_work = trace_budget = 4096
    round_frames = 256
    FLOWS = round_frames - 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng, seen = self.rng, set()
        self.flows = []
        while len(self.flows) < self.FLOWS:
            net, __ = rng.choice(PREFIXES)
            dst = net | (rng.randrange(256) << 8) | rng.randrange(1, 255)
            if dst in seen:
                continue
            seen.add(dst)
            self.flows.append((dst, rng.randrange(1024, 65536), rng.randrange(1024, 65536),
                               rng.randrange(2, 65)))
        self.flow_dsts = seen
        self.feff_at = rng.randrange(self.round_frames)

    def setup(self, platform):
        return Env(setup_router(platform))

    def make_round(self, index):
        # the round number rides in the IP identification, so every frame
        # of a run has its own (src, dst, ident) key
        ident = index & 0xFFFF
        frames = [(udp_body(SOURCE_IP, dst, sport, dport, ttl, ident, 64), "")
                  for dst, sport, dport, ttl in self.flows]
        rng = self.rng
        while True:
            ttl = rng.randrange(2, 65)
            dst = feff_dst(SOURCE_IP, rng.choice(PREFIXES)[0], ttl, ident, 64)
            if dst not in self.flow_dsts and dst & 0xFF not in (0, 255):
                break
        body = feff_body(SOURCE_IP, dst, rng.randrange(1024, 65536), rng.randrange(1024, 65536),
                         ttl, ident, 64)
        frames.insert(self.feff_at, (body, FEFF_CASE))
        return frames


class GatewayImix(DataPlane):
    """The paper's virtual gateway (router + 100 blacklist rules) on 2 CPUs
    with RSS; IMIX sizes 64/594/1514 B in a 7:4:1 mix; fates forward/drop/
    TTL-exceeded in a 70/20/10 mix; every frame a fresh 5-tuple. The first
    forwarded frame of a round has the header checksum 0xFEFF
    (:data:`FEFF_CASE`)."""

    name = "gateway-imix"
    cores = 2
    # sim_mpps over ten rounds: the seed's draw sets how evenly RSS spreads
    # them, and over two rounds that alone moved it by 2% between seeds
    sim_frames = min_work = 9600
    trace_budget = 1920
    round_frames = 960
    blacklist = tuple(BLACKLIST)
    ROUND_SIZES = [64] * 560 + [594] * 320 + [1514] * 80
    ROUND_FATES = [FWD] * 672 + [DROP] * 192 + [TTL] * 96

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.keys = set()

    def setup(self, platform):
        return Env(setup_gateway(platform, num_queues=self.cores))

    def make_round(self, index):
        rng = self.rng
        sizes, fates = list(self.ROUND_SIZES), list(self.ROUND_FATES)
        rng.shuffle(sizes)
        rng.shuffle(fates)
        base = index * len(sizes)
        bodies = []
        feff_at = fates.index(FWD)
        for i, (size, fate) in enumerate(zip(sizes, fates)):
            if fate == DROP:
                src = rng.choice(BLACKLIST)
            elif fate == TTL:
                src = SOURCE_IP  # the reply must reach a resolved neighbour
            else:
                src = pk.ip_int("10.0.1.0") | rng.randrange(2, 255)
            ident = (base + i) & 0xFFFF
            ttl = 1 if fate == TTL else rng.randrange(2, 65)
            while True:
                net, __ = rng.choice(PREFIXES)
                if i == feff_at:
                    dst = feff_dst(src, net, ttl, ident, size)
                    if dst & 0xFF in (0, 255):
                        continue
                else:
                    dst = net | (rng.randrange(256) << 8) | rng.randrange(1, 255)
                if (src, dst, ident) not in self.keys:
                    break
            self.keys.add((src, dst, ident))
            build, case = (feff_body, FEFF_CASE) if i == feff_at else (udp_body, "")
            bodies.append((build(src, dst, rng.randrange(1024, 65536), rng.randrange(1024, 65536),
                                 ttl, ident, size), case))
        return bodies


class Reconfig(Workload):
    """The router DUT plus br0 and 4 veths, driven by a seeded command
    script; every command is followed by one probe frame."""

    name = "reconfig"
    cores = 1
    trace_budget = 20  # cycles
    sim_cycles = 20  # cycles over which sim_mpps is taken
    min_work = max(sim_cycles, MIN_SLOW_SAMPLES // 6)  # 6 graph-changing steps a cycle
    VETHS = 4
    # (command template, graph-changing?, probe) per step of one cycle. Two
    # veths join and leave br0, so cheap graph changes (one interface) are
    # two thirds of the graph-changing samples and the filter's (every
    # interface) one third: p50 and p90 then each fall inside one group
    # rather than in the gap between two equal ones.
    CYCLE = [
        ("iptables -A FORWARD -s {s1}/32 -j DROP", True, "s1"),
        ("ip route add {net} via " + NEXT_HOP, False, "net"),
        ("iptables -A FORWARD -s {s2}/32 -j DROP", False, "s2"),
        ("brctl addif br0 {veth_a}", True, "any"),
        ("brctl addif br0 {veth_b}", True, "any"),
        ("ip route del {net}", False, "net"),
        ("iptables -D FORWARD -s {s2}/32 -j DROP", False, "s2"),
        ("iptables -D FORWARD -s {s1}/32 -j DROP", True, "s1"),
        ("brctl delif br0 {veth_a}", True, "any"),
        ("brctl delif br0 {veth_b}", True, "any"),
        ("ip link set eth1 mtu 1400", False, "big"),
        ("ip link set eth1 mtu 1500", False, "big"),
    ]
    TIMED_STEPS = sum(probe != "big" for __, __, probe in CYCLE)  # in host_kpps and sim_mpps

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cycle_ops: List[List[Tuple[str, bytes]]] = []

    def setup(self, platform):
        topo = setup_router(platform)
        add_bridge(topo, self.VETHS)
        return Env(topo, model=Model())

    def make_cycle(self, index: int) -> List[Tuple[str, bytes]]:
        """One cycle of the script: (command, probe body) per step."""
        rng = self.rng
        s1, s2 = (pk.ip_int("192.168.0.0") | rng.randrange(1, 65535) for __ in range(2))
        if s1 == s2:
            s2 ^= 1
        net = pk.ip_int("10.200.0.0") | (rng.randrange(50) << 16) | (rng.randrange(256) << 8)
        params = {"s1": dotted(s1), "s2": dotted(s2), "net": dotted(net) + "/24",
                  "veth_a": f"veth{2 * index % self.VETHS}",
                  "veth_b": f"veth{(2 * index + 1) % self.VETHS}"}
        steps = []
        for n, (template, __, probe) in enumerate(self.CYCLE):
            ident = (index * len(self.CYCLE) + n) & 0xFFFF
            dst = rng.choice(PREFIXES)[0] | (rng.randrange(256) << 8) | rng.randrange(1, 255)
            src, size = SOURCE_IP, 64
            if probe == "s1":
                src = s1
            elif probe == "s2":
                src = s2
            elif probe == "net":
                dst = net | rng.randrange(1, 255)
            elif probe == "big":
                size = 1514
            steps.append((template.format(**params),
                          udp_body(src, dst, rng.randrange(1024, 65536), rng.randrange(1024, 65536),
                                   rng.randrange(2, 65), ident, size)))
        return steps

    def cycle(self, index: int) -> List[Tuple[str, bytes]]:
        while index >= len(self.cycle_ops):
            self.cycle_ops.append(self.make_cycle(len(self.cycle_ops)))
        return self.cycle_ops[index]

    @staticmethod
    def apply(model: Model, command: str) -> None:
        """The reference model's view of a command."""
        words = command.split()
        if words[:2] == ["ip", "route"]:
            addr, length = words[3].split("/")
            entry = (pk.ip_int(addr), int(length))
            if words[2] == "add":
                model.routes.append(entry)
            else:
                model.routes.remove(entry)
        elif words[0] == "iptables":
            src = pk.ip_int(words[4].split("/")[0])
            if words[1] == "-A":
                model.blacklist.add(src)
            else:
                model.blacklist.discard(src)
        elif words[:4] == ["ip", "link", "set", "eth1"]:
            model.mtu = int(words[5])

    def window(self, env, clock, seconds, min_work, max_work=None, on_open=lambda: None):
        """Whole cycles until ``seconds`` of wall time have passed and at
        least ``min_work`` cycles ran (exactly ``max_work`` when given).

        ``host_kpps`` and ``sim_mpps`` count the steps before the MTU pair
        only (command plus probe): once ``bpf_fib_lookup`` checks the MTU,
        the over-MTU probe takes the slow path to be fragmented, and that
        fix must not read as a throughput regression."""
        topo = env.topo
        dut, nic, cpus = topo.dut, topo.dut_in.nic, topo.dut.cpus
        prefix = topo.dut_in.mac.to_bytes() + topo.src_eth.mac.to_bytes()
        ops: List[Op] = []
        fast, slow, steps = [], [], []  # steps: command + probe, MTU pair left out
        clock.probe()
        cpus.reset_busy()
        on_open()
        sim_busy_ns = rss = wall = 0.0
        begin = time.perf_counter()
        index = 0
        while True:
            if max_work is not None and index >= max_work:
                break
            if max_work is None and time.perf_counter() - begin >= seconds and index >= min_work:
                break
            start = time.perf_counter()
            for (step, graph_changing, probe), (command, body) in zip(self.CYCLE, self.cycle(index)):
                command_s = run_command(dut, command)
                (slow if graph_changing else fast).append(clock.piece(command_s))
                self.apply(env.model, command)
                ops.append(env.model.op(body, command, f"after {step}"))
                busy = cpus.total_busy_ns
                probe_start = time.perf_counter()
                nic.receive_burst([prefix + body])
                probe_s = time.perf_counter() - probe_start
                if probe != "big":
                    steps.append(clock.piece(command_s + probe_s))
                    if index < self.sim_cycles:
                        sim_busy_ns += cpus.total_busy_ns - busy
            wall += time.perf_counter() - start
            index += 1
            if index == self.sim_cycles:
                rss = peak_rss_mib()
            clock.probe()
        timed = sum(t for t, __ in steps)
        return Window(
            ops=ops,
            host_kpps=len(steps) / sum(clock.scaled(steps)) / 1e3,
            raw_kpps=len(steps) / timed / 1e3,
            sim_mpps=self.sim_cycles * self.TIMED_STEPS / sim_busy_ns * 1e3 if sim_busy_ns else 0.0,
            wall_s=wall,
            fast_ms=[t * 1e3 for t in clock.scaled(fast)],
            slow_ms=[t * 1e3 for t in clock.scaled(slow)],
            imbalance=cpus.imbalance(),
            peak_rss_mib=rss,
        )

    def replay(self, env, ops):
        topo = env.topo
        prefix = topo.dut_in.mac.to_bytes() + topo.src_eth.mac.to_bytes()
        for op in ops:
            run_command(topo.dut, op.command)
            topo.dut_in.nic.receive_burst([prefix + op.body])


WORKLOADS = {cls.name: cls for cls in (Router64, GatewayImix, Reconfig)}
