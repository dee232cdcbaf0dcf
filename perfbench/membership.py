"""The `membership` workload: cold start and joins on the simulator.

Twelve incumbents with a ``*`` grant cold-start on three channels over a
``SimNet`` with 25 +/- 5 ms one-way delay and no loss. Three joiners with a
grant for ``ch0`` only then arrive one at a time, while incumbent 1 publishes
100 B on every channel every 20 virtual ms. The control plane does almost
all the work; the publishes expose what the joins do to the data path.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from lcmsec import LcmsecNode
from lcmsec.errors import LcmsecError
from lcmsec.transport import SimNet, SimRunner

from common import (DATA_MAGICS, MGMT_MAGIC, Credentials, PayloadSource,
                    clock, median, payload_index, percentile)

GROUP = "239.255.97.8:17908"
CHANNELS = ("ch0", "ch1", "ch2")
INCUMBENTS = 12
JOINERS = 3
PUBLISH_EVERY = 0.020       # virtual s between incumbent 1's publishes
PAYLOAD = 100
CONVERGE_LIMIT = 30.0       # virtual s before a cold start or join fails
TAIL = 0.2                  # virtual s for the last copies to land
DELAY_MU, DELAY_SIGMA = 0.025, 0.005
SETUPS = 15                 # set-ups per scenario; the last one runs


class RecordingNode(LcmsecNode):
    """A node that notes when it became ready and what it delivered when.

    Readiness only changes on management traffic and timers, so data
    datagrams skip the check.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ready_at = (-1.0, -1.0)        # (virtual, wall) of last rise
        #: (wall clock, channel, payload) of every delivery
        self.deliveries: list[tuple[float, str, bytes]] = []
        self.data_in = 0
        self._was_ready = False

    def handle_datagram(self, data: bytes, now: float) -> list[bytes]:
        out = super().handle_datagram(data, now)
        if data[:4] in DATA_MAGICS:
            self.data_in += 1
            t = clock()
            for channel, payload in self.take_deliveries():
                self.deliveries.append((t, channel, payload))
        else:
            self._note_ready(now)
        return out

    def on_timer(self, now: float) -> list[bytes]:
        out = super().on_timer(now)
        self._note_ready(now)
        return out

    def _note_ready(self, now: float):
        ready = self.ready
        if ready and not self._was_ready:
            self.ready_at = (now, clock())
        self._was_ready = ready


def converged(nodes) -> bool:
    """Every node ready, with equal group seeds and equal channel seeds."""
    if not all(n.ready for n in nodes):
        return False
    if len({n.group_seed for n in nodes}) != 1:
        return False
    return all(len({n.channel_seed(c) for n in nodes if c in n.channels})
               <= 1 for c in CHANNELS)


@dataclass
class Convergence:
    ok: bool
    virtual_s: float = 0.0
    wall_s: float = 0.0
    control_msgs: int = 0
    unequal: bool = False       # every node ready but seeds differ
    published: range = range(0)  # indices of the publishes made meanwhile
    span_wall_s: float = 0.0    # wall time the simulator spent on it


@dataclass
class Scenario:
    setups: list                # set-up seconds, one per repeat
    cold: Convergence
    joins: list = field(default_factory=list)
    pairs: int = 0              # (publish, incumbent receiver) pairs
    pairs_failed: int = 0
    wrong: int = 0              # deliveries that match no publish
    #: wall us from each publish to its last incumbent delivery
    latencies_us: list = field(default_factory=list)
    join_rates: list = field(default_factory=list)   # deliveries per s
    publishes: int = 0
    delivered_all: int = 0      # deliveries at every node
    data_in: int = 0            # data datagrams at every node
    drops: dict = field(default_factory=dict)


class _Run:
    """One scenario's simulator, nodes and management-datagram log."""

    def __init__(self, seed: int):
        self.net = SimNet(seed=seed, loss=0.0, delay_mu=DELAY_MU,
                          delay_sigma=DELAY_SIGMA)
        self.runner = SimRunner(self.net)
        self.members = []
        self.endpoints = []
        self.mgmt_at: list[float] = []
        self.net.taps.append(self._tap)
        #: publish index -> (wall clock, channel, payload)
        self.published: dict[int, tuple[float, str, bytes]] = {}
        self.source = None

    def _tap(self, _sender, datagram):
        if datagram[:4] == MGMT_MAGIC:
            self.mgmt_at.append(self.net.now)

    def add(self, node):
        self.endpoints.append(self.runner.add(node))
        self.members.append(node)

    def advance(self, v0: float, w0: float, publish: bool) -> Convergence:
        """Step 20 virtual ms at a time until the members converge."""
        net = self.net
        m0 = len(self.mgmt_at)
        p0 = self.source.index
        while not converged(self.members):
            if net.now - v0 > CONVERGE_LIMIT:
                return Convergence(ok=False, unequal=all(
                    n.ready for n in self.members))
            if publish:
                self.publish_round()
            self.runner.run_until(net.now + PUBLISH_EVERY)
        v_ready = max(n.ready_at[0] for n in self.members)
        w_ready = max(n.ready_at[1] for n in self.members)
        msgs = sum(1 for t in self.mgmt_at[m0:] if t <= v_ready)
        return Convergence(ok=True, virtual_s=max(0.0, v_ready - v0),
                           wall_s=max(0.0, w_ready - w0), control_msgs=msgs,
                           published=range(p0, self.source.index),
                           span_wall_s=clock() - w0)

    def publish_round(self):
        for channel in CHANNELS:
            payload = self.source.fixed(PAYLOAD)
            self.published[payload_index(payload)] = (clock(), channel,
                                                      payload)
            try:
                self.runner.publish(0, channel, payload)
            except LcmsecError:
                pass                    # never delivered: its pairs fail


def _build(seed: int, workdir):
    """Set-up: a certificate authority, its certificates and the nodes."""
    creds = Credentials(workdir)
    inc = [RecordingNode(creds.member(GROUP, uid), creds.roots, GROUP,
                         CHANNELS, rng=random.Random(seed * 64 + uid))
           for uid in range(1, INCUMBENTS + 1)]
    new = [RecordingNode(creds.member(GROUP, uid, ("ch0",)), creds.roots,
                         GROUP, ("ch0",), rng=random.Random(seed * 64 + uid))
           for uid in range(INCUMBENTS + 1, INCUMBENTS + JOINERS + 1)]
    return inc, new


def scenario(seed: int, workdir, tracer=None, index: int = 0) -> Scenario:
    setups = []
    for r in range(SETUPS):
        t0 = clock()
        inc, new = _build(seed, workdir / f"ca{r}")
        setups.append(clock() - t0)
    out = Scenario(setups=setups, cold=Convergence(ok=False))
    run = _Run(seed)
    run.source = PayloadSource(seed, CHANNELS)
    for node in inc:
        run.add(node)

    if tracer is not None:
        tracer.op_id = index * (JOINERS + 1)
    w0 = clock()
    run.runner.start_all()
    out.cold = run.advance(0.0, w0, publish=False)
    if out.cold.ok:
        for k, joiner in enumerate(new):
            if tracer is not None:
                tracer.op_id = index * (JOINERS + 1) + k + 1
            run.add(joiner)
            v0, w0 = run.net.now, clock()
            for datagram in joiner.start(v0):
                run.endpoints[-1].send(datagram)
            conv = run.advance(v0, w0, publish=True)
            out.joins.append(conv)
            if not conv.ok:
                break
        run.runner.run_until(run.net.now + TAIL)
    out.joins += [Convergence(ok=False)] * (JOINERS - len(out.joins))
    _score(out, run, inc, new)
    return out


def _score(out: Scenario, run: _Run, inc, new):
    """Match every delivery to its publish; count the pairs that failed."""
    published = run.published
    out.publishes = len(published)
    got: Counter = Counter()        # publish index -> incumbent deliveries
    last: dict[int, float] = {}     # publish index -> last incumbent one
    for i, node in enumerate(inc + new):
        seen = set()
        for t, channel, payload in node.deliveries:
            idx = payload_index(payload)
            sent = published.get(idx)
            if sent is None or sent[1:] != (channel, payload) or idx in seen:
                out.wrong += 1
                continue
            seen.add(idx)
            if 0 < i < len(inc):
                got[idx] += 1
                last[idx] = max(t, last.get(idx, t))
        if 0 < i < len(inc):
            out.pairs += len(published)
            out.pairs_failed += len(published) - len(seen)
        out.delivered_all += node.session.stats.delivered
        out.data_in += node.data_in
        for reason, n in node.session.stats.drops.items():
            out.drops[reason] = out.drops.get(reason, 0) + n
    out.latencies_us = [(t - published[idx][0]) * 1e6
                        for idx, t in last.items()]
    out.join_rates = [sum(got[i] for i in j.published) / j.span_wall_s
                      for j in out.joins if j.ok]


def run(seed: int, seconds: float, workdir, tracer=None):
    """Scenarios with derived seeds until ``seconds`` of wall time pass."""
    scenarios = []
    t_end = clock() + seconds
    while not scenarios or (clock() < t_end
                            and not (tracer is not None and tracer.full)):
        k = len(scenarios)
        scenarios.append(scenario(seed * 1000 + k, workdir / f"ca{k}",
                                  tracer, index=k))
    return _result(scenarios)


def _result(scenarios):
    colds = [s.cold for s in scenarios]
    joins = [j for s in scenarios for j in s.joins]
    done = [c for c in colds + joins if c.ok]
    cold_ok = [c for c in colds if c.ok] or [Convergence(ok=False)]
    join_ok = [j for j in joins if j.ok] or [Convergence(ok=False)]
    lat = [x for s in scenarios for x in s.latencies_us]
    pairs = sum(s.pairs for s in scenarios)
    pairs_failed = sum(s.pairs_failed for s in scenarios)
    rates = [r for s in scenarios for r in s.join_rates] or [0.0]
    drops: dict[str, int] = {}
    for s in scenarios:
        for reason, n in s.drops.items():
            drops[reason] = drops.get(reason, 0) + n
    return {
        "checks": {
            "deliveries_match_publishes": all(s.wrong == 0
                                              for s in scenarios),
            "agreements_end_with_equal_seeds": not any(
                c.unequal for c in colds + joins),
        },
        # the gap pairs are a known defect, counted in
        # session.undelivered_share rather than as failed operations
        "attempted": len(colds) + len(joins),
        "failed": len(colds) + len(joins) - len(done),
        "samples": {"scenarios": len(scenarios), "joins": len(joins),
                    "setups": sum(len(s.setups) for s in scenarios),
                    "latency": len(lat), "pairs": pairs,
                    "pairs_failed": pairs_failed},
        "e2e": {
            "setup_s": median([t for s in scenarios for t in s.setups]),
            # incumbent deliveries per wall second of each join
            "msgs_per_s": median(rates),
            "ready_virtual_s": median([c.virtual_s for c in cold_ok]),
            "ready_wall_s": median([c.wall_s for c in cold_ok]),
            "join_virtual_s": median([j.virtual_s for j in join_ok]),
            "join_wall_s": median([j.wall_s for j in join_ok]),
            "join_control_msgs": median([j.control_msgs for j in join_ok]),
        },
        # printed, not gated, like the UDP workloads' latencies: wall time
        # from a publish to its last incumbent delivery
        "ungated": {
            "latency_p50_us": (percentile(lat, 50) if lat else 0.0, "us"),
            "latency_p99_us": (percentile(lat, 99) if lat else 0.0, "us"),
        },
        "layer_counts": {
            "messages": sum(s.publishes for s in scenarios),
            "events": len(colds) + len(joins),
            "datagrams": 0,          # no UDP
            "data_in": sum(s.data_in for s in scenarios),
            "delivered": sum(s.delivered_all for s in scenarios),
            "drops": drops,
            "pairs": pairs,
            "pairs_failed": pairs_failed,
            "plain_rtt_us": None,
        },
        "info": {"ready_wall_s": [round(c.wall_s, 3) for c in colds],
                 "join_wall_s": [round(j.wall_s, 3) for j in joins],
                 "join_rates": [round(r) for r in rates]},
    }
