"""Simulator scheduling guarantees plus the real multicast endpoints."""

from __future__ import annotations

import random
import socket
import statistics

import pytest

from lcmsec.errors import Oversize, SocketError
from lcmsec.gka import LocalIdentity
from lcmsec.node import LcmsecNode
from lcmsec.transport import (
    MAX_DATAGRAM,
    SimNet,
    SimRunner,
    UdpEndpoint,
    parse_group_address,
)


def test_parse_group_address():
    assert parse_group_address("239.255.76.67:7667") == ("239.255.76.67", 7667)
    for bad in ("no-port", "239.1.1.1:", "239.1.1.1:abc"):
        with pytest.raises(ValueError):
            parse_group_address(bad)


# ----------------------------------------------------------------- simulator


def test_fanout_excludes_sender():
    net = SimNet(seed=1)
    eps = [net.attach() for _ in range(4)]
    eps[0].send(b"hello")
    got = []
    while (ev := net.deliver_next()) is not None:
        got.append(ev)
    assert sorted(n for n, _ in got) == [1, 2, 3]
    assert all(d == b"hello" for _, d in got)
    assert net.sent == 1
    assert net.delivered == 3


def test_total_loss_drops_everything():
    net = SimNet(seed=1, loss=1.0)
    eps = [net.attach() for _ in range(3)]
    eps[0].send(b"x")
    assert net.pending() == 0
    assert net.sent == 1


def test_loss_must_be_probability():
    with pytest.raises(ValueError):
        SimNet(loss=1.5)
    with pytest.raises(ValueError):
        SimNet(loss=-0.1)


def _schedule(seed: int):
    """Drive a lossy net with a fixed workload; return the delivery trace."""
    net = SimNet(seed=seed, loss=0.3)
    eps = [net.attach() for _ in range(5)]
    rng = random.Random(99)
    trace = []
    for i in range(200):
        eps[rng.randrange(5)].send(bytes([i % 256]) * rng.randrange(1, 40))
        if rng.random() < 0.3 and (ev := net.deliver_next()) is not None:
            trace.append((net.now, *ev))
    while (ev := net.deliver_next()) is not None:
        trace.append((net.now, *ev))
    return trace


def test_identical_seeds_identical_schedules():
    first = _schedule(7)
    assert _schedule(7) == first
    assert _schedule(8) != first


def test_delay_distribution_matches_parameters():
    # defaults: normal(25ms, 5ms); mu is 5 sigma from zero so the
    # truncation at 0 moves the moments by a negligible amount
    net = SimNet(seed=3)
    xs = [net.sample_delay() for _ in range(10_000)]
    assert min(xs) >= 0.0
    assert statistics.mean(xs) == pytest.approx(0.025, rel=0.05)
    assert statistics.stdev(xs) == pytest.approx(0.005, rel=0.05)


def test_simultaneous_events_deliver_in_send_order():
    net = SimNet(seed=0, delay_mu=0.01, delay_sigma=0.0)
    a, b = net.attach(), net.attach()
    a.send(b"first")        # both copies land at exactly t=0.01
    b.send(b"second")
    assert net.deliver_next() == (1, b"first")
    assert net.deliver_next() == (0, b"second")
    assert net.now == pytest.approx(0.01)


def test_callback_sends_join_the_same_run():
    # a reply sent while one delivery is handled is delivered in turn
    net = SimNet(seed=2, delay_mu=0.01, delay_sigma=0.0)
    a, b = net.attach(), net.attach()
    eps = {a.node_id: a, b.node_id: b}
    log = []
    a.send(b"ping")
    while (ev := net.deliver_next()) is not None:
        node_id, datagram = ev
        log.append((round(net.now, 6), node_id, datagram))
        if datagram == b"ping":
            eps[node_id].send(b"pong")
    assert log == [(0.01, 1, b"ping"), (0.02, 0, b"pong")]


def test_oversize_datagram_rejected():
    net = SimNet()
    ep = net.attach()
    ep.send(b"x" * MAX_DATAGRAM)
    with pytest.raises(Oversize):
        ep.send(b"x" * (MAX_DATAGRAM + 1))


def test_taps_observe_sends_even_under_total_loss():
    net = SimNet(seed=0, loss=1.0)
    seen = []
    net.taps.append(lambda sender, dg: seen.append((sender, dg)))
    ep = net.attach()
    ep.send(b"a")
    ep.send(b"b")
    assert seen == [(0, b"a"), (0, b"b")]


def test_run_until_settles_clock_with_empty_queue():
    net = SimNet()
    SimRunner(net).run_until(2.5)
    assert net.now == 2.5
    assert net.deliver_next() is None


class _Stub:
    """A node with one timer; records what the runner calls, and when."""

    def __init__(self, name, log, wake=None):
        self.name, self.log, self.wake = name, log, wake

    def next_wakeup(self):
        return self.wake

    def on_timer(self, now):
        self.log.append((now, "timer", self.name))
        self.wake = None
        return []

    def handle_datagram(self, datagram, now):
        self.log.append((now, "datagram", self.name))
        return []


def test_runner_ties_go_to_deliveries_then_node_index():
    net = SimNet(seed=0, delay_mu=0.5, delay_sigma=0.0)
    runner = SimRunner(net)
    log = []
    nodes = [_Stub(i, log) for i in range(3)]
    eps = [runner.add(n) for n in nodes]
    eps[2].send(b"x")               # lands on nodes 0 and 1 at t=0.5
    nodes[1].wake = nodes[0].wake = 0.5
    nodes[2].wake = 0.25
    runner.run_until(1.0)
    assert log == [(0.25, "timer", 2), (0.5, "datagram", 0),
                   (0.5, "datagram", 1), (0.5, "timer", 0),
                   (0.5, "timer", 1)]
    assert net.now == 1.0


def poll_every_node_run_until(runner, t_end):
    """``SimRunner.run_until`` as it was: every node polled every event."""
    net = runner.net
    while True:
        heads = []
        nxt = net.next_delivery()
        if nxt is not None:
            heads.append((nxt, 0, None))
        for i, (node, _) in enumerate(runner._nodes):
            wake = node.next_wakeup()
            if wake is not None:
                heads.append((wake, 1, i))
        if not heads:
            break
        t, kind, which = min(heads)
        if t > t_end:
            break
        if kind == 0:
            node_id, datagram = net.deliver_next()
            node, ep = runner._nodes[node_id]
            for out in node.handle_datagram(datagram, net.now):
                ep.send(out)
        else:
            net.now = max(net.now, t)
            node, ep = runner._nodes[which]
            for out in node.on_timer(net.now):
                ep.send(out)
    net.now = max(net.now, t_end)


class _LoggingNode(LcmsecNode):
    def __init__(self, log, index, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log, self.index = log, index

    def handle_datagram(self, data, now):
        self.log.append((now, "datagram", self.index))
        return super().handle_datagram(data, now)

    def on_timer(self, now):
        self.log.append((now, "timer", self.index))
        return super().on_timer(now)


def test_runner_matches_poll_every_node_loop(member_factory, roots):
    group = "239.88.250.1:7667"
    identities = [LocalIdentity(uid, *member_factory(group, ("*",), uid=uid))
                  for uid in range(1, 6)]

    def scenario(run_until):
        net = SimNet(seed=21, loss=0.15, delay_mu=0.025, delay_sigma=0.005)
        runner = SimRunner(net)
        log = []
        nodes = [_LoggingNode(log, i, ident, roots, group, ("ch",),
                              random.Random(500 + i))
                 for i, ident in enumerate(identities)]
        for node in nodes[:4]:
            runner.add(node)
        runner.start_all()
        while net.now < 6.0:
            run_until(runner, net.now + 0.05)
        # the joiner is started outside the runner, between two runs
        ep = runner.add(nodes[4])
        for datagram in nodes[4].start(net.now):
            ep.send(datagram)
        while net.now < 12.0:
            run_until(runner, net.now + 0.05)
        return log, nodes

    fast, nodes = scenario(SimRunner.run_until)
    slow, _ = scenario(poll_every_node_run_until)
    assert fast == slow
    # the run got somewhere: every node, the joiner too, shares one key
    assert all(n.ready for n in nodes)
    assert len({n.group_seed for n in nodes}) == 1
    assert any(kind == "timer" for _, kind, _ in fast)


# ------------------------------------------------------------------ real UDP


UDP_GROUP = "239.255.77.1:17771"


def test_udp_loopback_roundtrip():
    tx = UdpEndpoint(UDP_GROUP)
    rx = UdpEndpoint(UDP_GROUP)
    try:
        tx.send(b"over the wire")
        got = None
        for _ in range(5):
            got = rx.recv(timeout=1.0)
            if got is not None:
                break
        assert got == b"over the wire"
    finally:
        tx.close()
        rx.close()


def test_udp_sender_hears_itself():
    # loopback stays on so one-host demos and benches work
    ep = UdpEndpoint("239.255.77.2:17772")
    try:
        ep.send(b"echo?")
        assert ep.recv(timeout=1.0) == b"echo?"
    finally:
        ep.close()


def test_udp_recv_timeout_returns_none():
    ep = UdpEndpoint("239.255.77.3:17773")
    try:
        assert ep.recv(timeout=0.05) is None
    finally:
        ep.close()


def test_udp_bad_group_raises_socket_error():
    with pytest.raises(SocketError):
        UdpEndpoint("10.1.2.3:7667")     # unicast: membership fails


def test_udp_oversize_rejected():
    ep = UdpEndpoint("239.255.77.4:17774")
    try:
        with pytest.raises(Oversize):
            ep.send(b"x" * (MAX_DATAGRAM + 1))
    finally:
        ep.close()


def test_udp_ttl_option_applied():
    ep = UdpEndpoint("239.255.77.5:17775", ttl=3)
    try:
        assert ep.sock.getsockopt(socket.IPPROTO_IP,
                                  socket.IP_MULTICAST_TTL) == 3
    finally:
        ep.close()

