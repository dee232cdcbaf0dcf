"""Datagram transports: real UDP multicast and a deterministic simulator.

Both expose the same byte-in, byte-out surface; protocol code upstream never
learns which one it is talking through. The simulator runs on virtual time
with seeded loss and normally distributed delay, so full multi-node protocol
runs are reproducible bit for bit and finish in milliseconds.
"""

from __future__ import annotations

import heapq
import itertools
import random
import socket
import struct
import time

from .errors import Oversize, SocketError

#: largest datagram either transport accepts (UDP payload ceiling)
MAX_DATAGRAM = 65507


def parse_group_address(group: str) -> tuple[str, int]:
    host, sep, port = group.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected ip:port, got {group!r}")
    return host, int(port)


# ------------------------------------------------------------------ simulator


class SimNet:
    """Multicast fabric with seeded per-link loss and delay.

    Sends fan out to every other attached endpoint; each copy independently
    survives with probability 1-loss and arrives after a normal(mu, sigma)
    delay truncated at zero. Identical seeds and call sequences give
    identical delivery schedules.
    """

    def __init__(self, seed: int = 0, loss: float = 0.0,
                 delay_mu: float = 0.025, delay_sigma: float = 0.005):
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be a probability")
        self.rng = random.Random(seed)
        self.loss = loss
        self.delay_mu = delay_mu
        self.delay_sigma = delay_sigma
        self.now = 0.0
        self.sent = 0
        self.delivered = 0
        self._heap: list[tuple[float, int, int, bytes]] = []
        self._tiebreak = itertools.count()
        self._attached = 0          # endpoints get ids 0, 1, ...
        self.taps = []              # observers: f(sender_id, datagram)

    def attach(self) -> SimEndpoint:
        ep = SimEndpoint(self, self._attached)
        self._attached += 1
        return ep

    def sample_delay(self) -> float:
        return max(0.0, self.rng.normalvariate(self.delay_mu,
                                               self.delay_sigma))

    def send(self, sender_id: int, datagram: bytes):
        if len(datagram) > MAX_DATAGRAM:
            raise Oversize(f"{len(datagram)} bytes")
        self.sent += 1
        for tap in self.taps:
            tap(sender_id, datagram)
        for node_id in range(self._attached):
            if node_id == sender_id:
                continue
            if self.rng.random() < self.loss:
                continue
            heapq.heappush(self._heap, (self.now + self.sample_delay(),
                                        next(self._tiebreak), node_id,
                                        datagram))

    def pending(self) -> int:
        return len(self._heap)

    def next_delivery(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def deliver_next(self) -> tuple[int, bytes] | None:
        """Pop one event, advance the clock to it; None when queue is empty."""
        if not self._heap:
            return None
        t, _, node_id, datagram = heapq.heappop(self._heap)
        self.now = max(self.now, t)
        self.delivered += 1
        return node_id, datagram


class SimEndpoint:
    """One node's hookup to a SimNet."""

    def __init__(self, net: SimNet, node_id: int):
        self.net = net
        self.node_id = node_id

    def send(self, datagram: bytes):
        self.net.send(self.node_id, datagram)


class SimRunner:
    """Event loop over sans-io nodes: network queue and node timers merged."""

    def __init__(self, net: SimNet):
        self.net = net
        self._nodes = []            # (node, endpoint)

    def add(self, node) -> SimEndpoint:
        ep = self.net.attach()
        self._nodes.append((node, ep))
        return ep

    def start_all(self):
        for node, ep in self._nodes:
            for datagram in node.start(self.net.now):
                ep.send(datagram)

    def publish(self, node_index: int, channel: str, payload: bytes):
        node, ep = self._nodes[node_index]
        for datagram in node.publish(channel, payload, self.net.now):
            ep.send(datagram)

    def run_until(self, t_end: float):
        """Run every delivery and timer due by ``t_end`` in time order.

        At equal times deliveries go before timers, and timers go by node
        index. Every node's wakeup is read once on entry, since nodes may
        have been started, fed or added outside the runner. After that only
        the node that just ran can have moved its timers, so only it is
        asked again; superseded heap entries are skipped when they surface.
        """
        net = self.net
        nodes = self._nodes
        wakes = [node.next_wakeup() for node, _ in nodes]
        timers = [(t, i) for i, t in enumerate(wakes) if t is not None]
        heapq.heapify(timers)
        while True:
            while timers and wakes[timers[0][1]] != timers[0][0]:
                heapq.heappop(timers)
            nxt = net.next_delivery()
            if timers and (nxt is None or timers[0][0] < nxt):
                t, i = timers[0]
                if t > t_end:
                    break
                net.now = max(net.now, t)
                node, ep = nodes[i]
                for out in node.on_timer(net.now):
                    ep.send(out)
            elif nxt is not None:
                if nxt > t_end:
                    break
                i, datagram = net.deliver_next()
                node, ep = nodes[i]
                for out in node.handle_datagram(datagram, net.now):
                    ep.send(out)
            else:
                break
            wake = node.next_wakeup()
            if wake != wakes[i]:
                wakes[i] = wake
                if wake is not None:
                    heapq.heappush(timers, (wake, i))
        net.now = max(net.now, t_end)

    def run_while(self, predicate, t_max: float, step: float = 0.05):
        """Advance until predicate() goes false or t_max passes."""
        while predicate() and self.net.now < t_max:
            self.run_until(min(t_max, self.net.now + step))
        return not predicate()


# ------------------------------------------------------------------- real UDP


class UdpEndpoint:
    """UDP multicast socket with loopback on, so one host can self-test."""

    def __init__(self, group: str, *, interface: str = "0.0.0.0",
                 ttl: int = 0):
        host, port = parse_group_address(group)
        self.addr = (host, port)
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if hasattr(socket, "SO_REUSEPORT"):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind(("", port))
            member = struct.pack("4s4s", socket.inet_aton(host),
                                 socket.inet_aton(interface))
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP,
                            member)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            # fragmented bursts plus our own looped-back copies overflow
            # the ~200KB defaults; the kernel caps these at rmem/wmem_max
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
            if ttl:
                sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL,
                                ttl)
        except OSError as exc:
            raise SocketError(f"cannot join {group}: {exc}") from exc
        self.sock = sock

    def send(self, datagram: bytes):
        if len(datagram) > MAX_DATAGRAM:
            raise Oversize(f"{len(datagram)} bytes")
        try:
            self.sock.sendto(datagram, self.addr)
        except (socket.timeout, BlockingIOError):
            # a short timeout left over from recv() must not turn a full
            # send buffer into a spurious failure mid-burst: block it out
            try:
                self.sock.settimeout(None)
                self.sock.sendto(datagram, self.addr)
            except OSError as exc:
                raise SocketError(str(exc)) from exc
        except OSError as exc:
            raise SocketError(str(exc)) from exc

    def recv(self, timeout: float | None) -> bytes | None:
        """One datagram, or None on timeout."""
        self.sock.settimeout(timeout)
        try:
            data, _ = self.sock.recvfrom(65536)
            return data
        except socket.timeout:
            return None
        except OSError as exc:
            raise SocketError(str(exc)) from exc

    def close(self):
        self.sock.close()


class UdpRunner:
    """Wall-clock loop pumping one node through a UdpEndpoint.

    Timestamps come from time.time() so the discovery deadlines agree
    between processes on one host.
    """

    def __init__(self, node, endpoint: UdpEndpoint):
        self.node = node
        self.endpoint = endpoint

    def start(self):
        for out in self.node.start(time.time()):
            self.endpoint.send(out)

    def publish(self, channel: str, payload: bytes):
        for out in self.node.publish(channel, payload, time.time()):
            self.endpoint.send(out)

    def pump(self, duration: float, until=None) -> bool:
        """Run for ``duration`` seconds; True as soon as until() holds."""
        deadline = time.time() + duration
        # timers only move when the node processes something, so the next
        # wakeup needs recomputing just after those calls, not every loop
        wake = self.node.next_wakeup()
        while True:
            now = time.time()
            if until is not None and until():
                return True
            if now >= deadline:
                return until is None
            timeout = max(0.0, min(deadline, wake or deadline) - now)
            data = self.endpoint.recv(min(0.05, max(0.001, timeout)))
            now = time.time()
            dirty = data is not None
            if data is not None:
                for out in self.node.handle_datagram(data, now):
                    self.endpoint.send(out)
            if wake is not None and now >= wake:
                for out in self.node.on_timer(now):
                    self.endpoint.send(out)
                dirty = True
            if dirty:
                wake = self.node.next_wakeup()
