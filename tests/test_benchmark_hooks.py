"""The traced benchmark run (``perfbench/layers.py``) wraps functions and
methods of the package by name. If a refactor renames or deletes one, its
per-layer metric silently reads "not called"; these checks fail instead."""

from __future__ import annotations

import importlib.util
import random
from collections import Counter
from pathlib import Path

from lcmsec.ecgroup import P256
from lcmsec.gka import (GkaPhase, GkaSession, InstanceLedger, LocalIdentity,
                        RingConfig)
from lcmsec.identity import LCMDomain

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
