"""The traced benchmark run (``perfbench/layers.py``) wraps functions and
methods of the package by name, the UDP workloads
(``perfbench/udp_paths.py``) drive sockets and build datagrams through it,
and every workload constructs nodes. If a refactor renames or deletes one,
a per-layer metric silently reads "not called" or a workload breaks only
when it runs; these checks fail instead."""

from __future__ import annotations

import importlib.util
import inspect
import os
import random
import select
import socket
import sys
from collections import Counter
from pathlib import Path

from lcmsec import LcmsecNode, wire
from lcmsec.ecgroup import P256
from lcmsec.gka import GkaPhase, GkaSession, LocalIdentity, RingConfig
from lcmsec.identity import LCMDomain
from lcmsec.session import ReplayWindow
from lcmsec.transport import SimNet, SimRunner, UdpEndpoint

from test_gka import hand_in

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name: str):
    # the perfbench modules import their siblings by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(monkeypatch):
    layers = load_perfbench(monkeypatch, "layers")
    missing = [name for owner, attr, name in layers.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # wire.reassembly.slots_max reads len() of the buffer
    assert "__len__" in vars(layers.ReassemblyBuffer)


def test_udp_paths_names_used_at_run_time():
    # udp_paths.py selects on each endpoint's socket, then reads one
    # datagram with recv(None); loopback is on, so a node hears itself
    pid = os.getpid()
    ep = UdpEndpoint(f"239.255.98.{pid % 250 + 1}:{7990 + pid % 8}")
    try:
        assert isinstance(ep.sock, socket.socket)
        ep.send(b"probe")
        assert select.select([ep.sock], [], [], 2.0)[0] == [ep.sock]
        assert ep.recv(None) == b"probe"
    finally:
        ep.close()
    # names its functions look up in lcmsec.wire only when they run
    for name in ("FragmentPacket", "encode_fragment", "encode_plain_lcm"):
        assert callable(getattr(wire, name, None)), name
    # the forged fragments are built by field name
    assert wire.encode_fragment(wire.FragmentPacket(
        seqno=1, sender_id=2, full_body_length=3, fragment_offset=0,
        fragment_no=0, fragments_total=1, section=b"abc"))[:4] == b"LC3F"
    assert wire.SECURE_HEADER_LEN == 10 and wire.FRAGMENT_HEADER_LEN == 22


def test_agreement_multiplies_only_through_p256_exp(monkeypatch,
                                                    member_factory):
    # ecgroup.exp.calls counts calls to P256.exp; a scalar multiplication
    # that reached OpenSSL by another route would go uncounted. A ring
    # member makes three: x·G, then x·Z for each neighbour.
    calls = Counter()
    exp = P256.exp

    def counted(base, scalar):
        calls[scalar] += 1
        return exp(base, scalar)

    monkeypatch.setattr(P256, "exp", counted)
    group = "239.9.255.1:7667"
    members = [LocalIdentity(uid, *member_factory(group, uid=uid))
               for uid in (1, 2, 3)]
    ring = [(m.uid, m.cert) for m in members]
    sessions = [GkaSession(RingConfig(scope=LCMDomain(group, ""),
                                      participants=ring, my_index=i,
                                      instance_id=1),
                           m, rng=random.Random(i))
                for i, m in enumerate(members)]
    queue = [env for s in sessions for env in s.start(0.0)]
    while queue:
        env = queue.pop(0)
        for s in sessions:
            queue.extend(hand_in(s, env, 0.0))
    assert all(s.phase is GkaPhase.DONE for s in sessions)
    assert len({s.seed for s in sessions}) == 1
    assert calls == {s._x: 3 for s in sessions}


def test_workload_nodes_construct(monkeypatch, tmp_path):
    # membership builds its nodes in _build; a constructor it no longer
    # fits fails the whole workload as run_failed
    membership = load_perfbench(monkeypatch, "membership")
    incumbents, joiners = membership._build(1, tmp_path)
    assert len(incumbents) == membership.INCUMBENTS
    assert len(joiners) == membership.JOINERS
    assert all(isinstance(n, LcmsecNode) for n in incumbents + joiners)
    # udp_paths.Pair builds its two nodes as
    # LcmsecNode(ident, roots, GROUP, CHANNELS, rng=..., mtu=MTU)
    udp_paths = load_perfbench(monkeypatch, "udp_paths")
    inspect.signature(LcmsecNode).bind(
        incumbents[0].identity, [], udp_paths.GROUP, udp_paths.CHANNELS,
        rng=random.Random(0), mtu=udp_paths.MTU)


def test_live_node_names_read_at_run_time(monkeypatch, member_factory,
                                          roots):
    # udp_paths.py and membership.py read these off running nodes, and the
    # traced session.replay.check span wraps ReplayWindow.check: a replay
    # check that no longer went through it would read "not called"
    checks = []
    check = ReplayWindow.check

    def counted(self, seqno):
        checks.append(seqno)
        return check(self, seqno)

    monkeypatch.setattr(ReplayWindow, "check", counted)
    group = "239.9.255.2:7667"
    runner = SimRunner(SimNet(seed=1))
    nodes = []
    for uid in (1, 2):
        ident = LocalIdentity(uid, *member_factory(group, uid=uid))
        nodes.append(LcmsecNode(ident, roots, group, ("chatter",),
                                random.Random(uid)))
        runner.add(nodes[-1])
    runner.start_all()
    assert runner.run_while(lambda: not all(n.ready for n in nodes), 30.0)
    pub, sub = nodes
    now = runner.net.now
    (datagram,) = pub.publish("chatter", b"once", now)
    for _ in range(2):
        sub.handle_datagram(datagram, now)
    assert sub.take_deliveries() == [("chatter", b"once")]
    assert checks == [0, 0]
    assert sub.session.stats.delivered == 1
    assert sub.session.stats.drops.get("replayed") == 1
    assert {n.session.sender_id for n in nodes} == {1, 2}
    assert all(n.stats["foreign_scope"] == 0 for n in nodes)
