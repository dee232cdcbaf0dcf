"""The `pubsub` and `hostile` workloads: two nodes over loopback multicast.

One process and one thread drive a publisher node and a subscriber node,
each on its own ``UdpEndpoint`` in one multicast group, so traffic crosses
the host's loopback interface and never a real link. The closed loop keeps
one message in flight: the next publish waits for the previous delivery.
On `hostile` an attacker injects one datagram per legit message through the
publisher's socket, so both nodes receive it.
"""

from __future__ import annotations

import os
import random
import select
from collections import deque
from dataclasses import dataclass, field

from lcmsec import LcmsecNode, wire
from lcmsec.errors import LcmsecError
from lcmsec.transport import UdpEndpoint

from common import (DATA_MAGICS, MGMT_MAGIC, MTU, Credentials,
                    PayloadSource, clock, median, percentile)

#: Linux hands a socket every group's datagrams to its port, so the port
#: differs per process (and from every test's) to keep concurrent runs apart
GROUP = f"239.255.97.7:{20000 + os.getpid() % 10000}"
CHANNELS = ("ch0", "ch1", "ch2", "ch3")
SETUP_LIMIT = 20.0          # s: a set-up that takes longer aborts the run
DELIVERY_TIMEOUT = 1.0      # s: a message not delivered by then has failed
WARMUP = {"pubsub": 2.0, "hostile": 5.0}   # hostile: one reassembly timeout
WINDOW_S = 1.0              # s: one window of the measured phase
SETUPS = 5                  # set-ups per run; the last one carries traffic
PLAIN_RTT_PROBES = 500      # round trips behind transport.plain_rtt_us
#: data-path rates, each reported as its median over the windows
WINDOWED = ("msgs_per_s", "goodput_mb_per_s")


def wait_readable(socks, timeout):
    """The sockets of ``socks`` with a datagram waiting."""
    return select.select(socks, [], [], timeout)[0]


class Pair:
    """Publisher (index 0) and subscriber (index 1), one endpoint each."""

    def __init__(self, identities, roots, seed: int):
        self.endpoints = [UdpEndpoint(GROUP), UdpEndpoint(GROUP)]
        self.nodes = [LcmsecNode(ident, roots, GROUP, CHANNELS,
                                 rng=random.Random(seed * 2 + i), mtu=MTU)
                      for i, ident in enumerate(identities)]
        self.socks = [ep.sock for ep in self.endpoints]
        self.wake = [None, None]
        self.mgmt_sent = 0
        #: data datagrams handed to each node
        self.data_in = [0, 0]

    def close(self):
        for ep in self.endpoints:
            ep.close()

    def send(self, i: int, datagrams):
        ep = self.endpoints[i]
        for d in datagrams:
            ep.send(d)
        self.mgmt_sent += len(datagrams)
        self.wake[i] = self.nodes[i].next_wakeup()

    def handle(self, i: int) -> None:
        data = self.endpoints[i].recv(None)
        if data[:4] in DATA_MAGICS:
            self.data_in[i] += 1
        out = self.nodes[i].handle_datagram(data, clock())
        if out or data[:4] == MGMT_MAGIC:
            self.send(i, out)

    def fire_timers(self):
        now = clock()
        for i, wake in enumerate(self.wake):
            if wake is not None and now >= wake:
                self.send(i, self.nodes[i].on_timer(now))

    def converged(self) -> bool:
        pub, sub = self.nodes
        return (pub.ready and sub.ready
                and pub.group_seed == sub.group_seed
                and all(pub.channel_seed(c) == sub.channel_seed(c)
                        for c in CHANNELS))


@dataclass
class Setup:
    setup_s: float
    ready_s: float          # start until both nodes are ready
    join_s: float           # first group commit until both are ready
    join_msgs: int          # management datagrams sent in that window


def set_up(identities, roots, seed: int) -> tuple[Pair, Setup]:
    """Bind, build both nodes and run discovery and every agreement."""
    t_bind = clock()
    pair = Pair(identities, roots, seed)
    t_start = clock()
    for i, node in enumerate(pair.nodes):
        pair.send(i, node.start(t_start))
    t_group = msgs_group = None
    while not pair.converged():
        now = clock()
        if now - t_start > SETUP_LIMIT:
            pair.close()
            raise LcmsecError(f"set-up not ready after {SETUP_LIMIT} s")
        waits = [w - now for w in pair.wake if w is not None]
        timeout = min([0.05] + waits)
        for s in wait_readable(pair.socks, max(0.0, timeout)):
            pair.handle(pair.socks.index(s))
        pair.fire_timers()
        if t_group is None and any(n.group_epoch for n in pair.nodes):
            t_group, msgs_group = clock(), pair.mgmt_sent
    t_ready = clock()
    return pair, Setup(setup_s=t_ready - t_bind, ready_s=t_ready - t_start,
                       join_s=t_ready - t_group,
                       join_msgs=pair.mgmt_sent - msgs_group)


class Attacker:
    """Hostile datagrams: forged first fragments, replays, bit flips.

    Forged fragments carry a random sender id and message id and declare a
    64 KB body, so each one opens a reassembly slot that never completes.
    Replays and flips reuse recent legit datagrams; a flip never touches
    the header, so it cannot collide with a future message id.
    """

    def __init__(self, seed: int, legit_sender_ids):
        self.rng = random.Random(seed ^ 0x5EED)
        self.recent: deque[bytes] = deque(maxlen=256)
        self.taken = set(legit_sender_ids)
        cap = MTU - wire.FRAGMENT_HEADER_LEN
        self.body_len = 65536
        self.total = -(-self.body_len // cap)
        self.section = self.rng.randbytes(cap)
        self.sent = {"forged": 0, "replay": 0, "flip": 0}

    def remember(self, datagrams):
        self.recent.extend(datagrams)

    def next(self) -> bytes:
        r = self.rng.random()
        if r < 0.5 or not self.recent:
            self.sent["forged"] += 1
            sender = self.rng.randrange(1, 0x10000)
            while sender in self.taken:
                sender = self.rng.randrange(1, 0x10000)
            return wire.encode_fragment(wire.FragmentPacket(
                seqno=self.rng.getrandbits(32), sender_id=sender,
                full_body_length=self.body_len, fragment_offset=0,
                fragment_no=0, fragments_total=self.total,
                section=self.section))
        legit = self.recent[self.rng.randrange(len(self.recent))]
        if r < 0.75:
            self.sent["replay"] += 1
            return legit
        self.sent["flip"] += 1
        header = (wire.SECURE_HEADER_LEN if legit[:4] == DATA_MAGICS[0]
                  else wire.FRAGMENT_HEADER_LEN)
        flipped = bytearray(legit)
        bit = self.rng.randrange((len(legit) - header) * 8)
        flipped[header + bit // 8] ^= 1 << (bit % 8)
        return bytes(flipped)


class Window:
    """One second of the measured phase, summarised on its own.

    The host's speed drifts by tens of percent over seconds, so each window
    yields its own rates and the run reports their median, which a stall of
    a few seconds does not move.
    """

    def __init__(self, t0: float):
        self.t0 = t0
        self.delivered = 0
        self.bytes = 0
        self.attack_s = 0.0

    def close(self, t1: float) -> dict:
        wall = t1 - self.t0 - self.attack_s
        return {"msgs_per_s": self.delivered / wall,
                "goodput_mb_per_s": self.bytes / wall / 1e6}


@dataclass
class Traffic:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0                  # deliveries that match no publish
    legit: int = 0                  # deliveries of legit messages, all
    windows: list = field(default_factory=list)
    #: publish-to-delivery latency of every measured message
    latencies_us: list = field(default_factory=list)
    messages: int = 0               # every publish, warm-up included
    datagrams: int = 0              # legit datagrams of those publishes


def drain(pair: Pair, timeout: float) -> None:
    """Hand every queued datagram to its node, until none comes within
    ``timeout`` seconds."""
    socks = pair.socks
    while ready := wait_readable(socks, timeout):
        for s in ready:
            pair.handle(socks.index(s))


def traffic(pair: Pair, source: PayloadSource, attacker: Attacker | None,
            warmup: float, seconds: float, tracer=None) -> Traffic:
    """Closed loop: publish, wait for the delivery, drain the echoes.

    On `hostile` the attacker's datagram goes out before each publish and
    both nodes take it first. No legit message queues behind it, so the
    latency is the data path's on an attacked node, while the time the
    nodes spend on attack traffic still counts against the throughput.
    """
    pub, sub = pair.nodes
    pub_ep = pair.endpoints[0]
    pub_sock, sub_sock = pair.socks
    both = pair.socks
    out = Traffic()
    late: dict[bytes, str] = {}     # failed payload -> channel
    t_measure = clock() + warmup
    t_end = t_measure + seconds
    measuring = False
    win = Window(clock())           # the warm-up's, never summarised
    while True:
        now = clock()
        if not measuring and now >= t_measure:
            measuring, win = True, Window(now)
        elif measuring and (now >= t_end
                            or (tracer is not None and tracer.full)):
            # a short last window is dropped unless it is the only one
            if not out.windows:
                out.windows.append(win.close(now))
            break
        elif measuring and now - win.t0 >= WINDOW_S:
            out.windows.append(win.close(now))
            win = Window(now)
        channel, payload = source.next()
        if tracer is not None:
            tracer.op_id = out.messages
        out.messages += 1
        if attacker is not None:
            a0 = clock()
            pub_ep.send(attacker.next())
            win.attack_s += clock() - a0
            drain(pair, 0)
        t0 = clock()
        try:
            datagrams = pub.publish(channel, payload, t0)
            for d in datagrams:
                pub_ep.send(d)
        except LcmsecError:
            datagrams = None
        delivered = False
        if datagrams is not None:
            out.datagrams += len(datagrams)
            deadline = t0 + DELIVERY_TIMEOUT
            while not delivered:
                timeout = deadline - clock()
                if timeout <= 0:
                    break
                ready = wait_readable(both, timeout)
                if sub_sock in ready:
                    pair.handle(1)
                    got = sub.take_deliveries()
                    if got:
                        t1 = clock()
                        for item in got:
                            if item == (channel, payload) and not delivered:
                                delivered = True
                            elif late.pop(item[1], None) == item[0]:
                                out.legit += 1
                            else:
                                out.wrong += 1
                        if delivered:
                            if measuring:
                                out.latencies_us.append((t1 - t0) * 1e6)
                if pub_sock in ready:
                    pair.handle(0)
            if attacker is not None:
                a0 = clock()
                attacker.remember(datagrams)
                win.attack_s += clock() - a0
        drain(pair, 0)
        pair.fire_timers()
        if delivered:
            out.legit += 1
            win.delivered += 1
            win.bytes += len(payload)
        else:
            late[payload] = channel
        if measuring:
            out.attempted += 1
            out.failed += not delivered
    # datagrams still queued are read so that no hostile one goes unchecked
    drain(pair, 0.05)
    for channel, payload in sub.take_deliveries():
        if late.pop(payload, None) == channel:
            out.legit += 1
        else:
            out.wrong += 1
    return out


def plain_rtt_us(pair: Pair) -> float:
    """Median round trip of the smallest plaintext datagram, same sockets.

    The bare-forwarding reference: one send on the publisher's socket and
    one receive on the subscriber's, with no node in between.
    """
    pub_ep, sub_ep = pair.endpoints
    pub_sock, sub_sock = pair.socks
    datagram = wire.encode_plain_lcm("p", 0, b"")
    samples = []
    for _ in range(PLAIN_RTT_PROBES):
        t0 = clock()
        pub_ep.send(datagram)
        if not wait_readable([sub_sock], 1.0):
            raise LcmsecError("plaintext probe lost on loopback")
        sub_ep.recv(None)
        samples.append((clock() - t0) * 1e6)
        if wait_readable([pub_sock], 1.0):
            pub_ep.recv(None)          # the publisher's own looped copy
    return median(samples)


def run(workload: str, seed: int, seconds: float, workdir, tracer=None):
    """One run of `pubsub` or `hostile`; returns a result dictionary."""
    creds = Credentials(workdir)
    identities = [creds.member(GROUP, uid) for uid in (1, 2)]
    if tracer is not None:
        tracer.op_id = -1
    runs = []
    pair = None
    for k in range(SETUPS):
        if pair is not None:
            pair.close()
        pair, setup = set_up(identities, creds.roots, seed * 8 + k)
        runs.append(setup)
    try:
        rtt = None
        if tracer is not None:
            tracer.enabled = False
            rtt = plain_rtt_us(pair)
            tracer.enabled = True
        attacker = None
        if workload == "hostile":
            attacker = Attacker(seed, [n.session.sender_id
                                       for n in pair.nodes])
        source = PayloadSource(seed, CHANNELS)
        t = traffic(pair, source, attacker, WARMUP[workload], seconds, tracer)
        return _result(workload, pair, runs, t, attacker, rtt)
    finally:
        pair.close()


def _result(workload, pair, runs, t: Traffic, attacker, rtt):
    checks = {"deliveries_match_publishes": t.wrong == 0}
    if workload == "pubsub":
        checks["no_stray_traffic"] = all(
            n.stats["foreign_scope"] == 0
            and n.session.stats.drops.get("bad_magic", 0) == 0
            for n in pair.nodes)
    else:
        # the nodes' own counts agree: the subscriber delivered only legit
        # messages, and the publisher, the only legit sender, delivered none
        pub, sub = pair.nodes
        checks["no_attacker_delivery"] = (
            sub.session.stats.delivered == t.legit
            and pub.session.stats.delivered == 0)
    delivered = t.attempted - t.failed
    drops: dict[str, int] = {}
    for node in pair.nodes:
        for reason, n in node.session.stats.drops.items():
            drops[reason] = drops.get(reason, 0) + n
    windowed = {k: median([w[k] for w in t.windows]) for k in WINDOWED}
    lat = t.latencies_us
    return {
        "checks": checks,
        "attempted": t.attempted,
        "failed": t.failed,
        "samples": {"windows": len(t.windows),
                    "latency": len(lat),
                    "setups": len(runs)},
        "e2e": {
            "setup_s": median([r.setup_s for r in runs]),
            "msgs_per_s": windowed["msgs_per_s"],
            # the set-up's cold start and its channel-scope joins; over UDP
            # the node clock is the wall clock, so virtual repeats wall
            "ready_virtual_s": median([r.ready_s for r in runs]),
            "ready_wall_s": median([r.ready_s for r in runs]),
            "join_virtual_s": median([r.join_s for r in runs]),
            "join_wall_s": median([r.join_s for r in runs]),
            "join_control_msgs": median([r.join_msgs for r in runs]),
        },
        # printed, not gated: with a fixed mix, goodput is msgs_per_s times
        # the mix's mean size; the latencies, over every measured message,
        # spread too widely across runs on a shared host (see README)
        "ungated": {
            "goodput_mb_per_s": (windowed["goodput_mb_per_s"], "MB/s"),
            "latency_p50_us": (percentile(lat, 50) if lat else 0.0, "us"),
            "latency_p99_us": (percentile(lat, 99) if lat else 0.0, "us"),
        },
        "layer_counts": {
            "messages": t.messages,
            "events": len(runs),
            "datagrams": t.datagrams,
            "data_in": sum(pair.data_in),
            "delivered": sum(n.session.stats.delivered for n in pair.nodes),
            "drops": drops,
            "pairs": t.attempted,
            "pairs_failed": t.failed,
            "plain_rtt_us": rtt,
        },
        "info": {"attacker": attacker.sent if attacker else None,
                 "delivered": delivered,
                 "windows": {k: [round(w[k], 3) for w in t.windows]
                             for k in WINDOWED}},
    }
