"""The traced benchmark run (``perfbench/layers.py``) wraps functions and
methods of the package by name, and the UDP workloads
(``perfbench/udp_paths.py``) drive sockets and build datagrams through it.
If a refactor renames or deletes one, a per-layer metric silently reads
"not called" or a workload breaks only when it runs; these checks fail
instead."""

from __future__ import annotations

import importlib.util
import os
import random
import select
import socket
from collections import Counter
from pathlib import Path

from lcmsec import wire
from lcmsec.ecgroup import P256
from lcmsec.gka import (GkaPhase, GkaSession, InstanceLedger, LocalIdentity,
                        RingConfig)
from lcmsec.identity import LCMDomain
from lcmsec.transport import UdpEndpoint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_targets_resolve(monkeypatch):
    # layers.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
                           m, InstanceLedger(), rng=random.Random(i))
                for i, m in enumerate(members)]
    queue = [env for s in sessions for env in s.start(0.0)]
    while queue:
        env = queue.pop(0)
        for s in sessions:
            queue.extend(s.handle(env, 0.0))
    assert all(s.phase is GkaPhase.DONE for s in sessions)
    assert len({s.seed for s in sessions}) == 1
    assert calls == {s._x: 3 for s in sessions}
