"""Full-stack runs: discovery, key agreement and the data path composed."""

from __future__ import annotations

import dataclasses
import itertools
import logging
import random
from collections import Counter

import pytest

from ivlog import IvLog
from lcmsec import discovery, session, wire
from lcmsec.errors import CounterExhausted, NoKey
from lcmsec.gka import LocalIdentity
from lcmsec.node import LcmsecNode
from lcmsec.transport import SimNet, SimRunner

_group_counter = itertools.count(1)


def fresh_group() -> str:
    return f"239.88.{next(_group_counter)}.1:7667"


@pytest.fixture
def make_cluster(member_factory, roots):
    """n nodes wired to one SimNet; returns (net, runner, nodes)."""

    def build(n, channels=("chatter",), *, seed=0, loss=0.0,
              delay_mu=0.002, delay_sigma=0.0004, group=None,
              identities=None):
        group = group or fresh_group()
        net = SimNet(seed=seed, loss=loss, delay_mu=delay_mu,
                     delay_sigma=delay_sigma)
        runner = SimRunner(net)
        nodes = []
        if identities is None:
            identities = []
            for uid in range(1, n + 1):
                cert, key = member_factory(group, ("*",), uid=uid)
                identities.append(LocalIdentity(uid, cert, key))
        for ident in identities:
            node = LcmsecNode(ident, roots, group, channels,
                              random.Random(seed * 1000 + ident.uid))
            runner.add(node)
            nodes.append(node)
        return net, runner, nodes

    return build


def settle(runner, nodes, t_max=30.0):
    return runner.run_while(lambda: not all(n.ready for n in nodes), t_max)


def test_pair_reaches_ready_and_chats(make_cluster):
    net, runner, nodes = make_cluster(2)
    runner.start_all()
    assert settle(runner, nodes)
    assert nodes[0].group_epoch == 1
    assert all(n.channel_epoch("chatter") == 1 for n in nodes)

    runner.publish(0, "chatter", b"first contact")
    runner.run_until(net.now + 1.0)
    assert nodes[1].take_deliveries() == [("chatter", b"first contact")]
    assert nodes[0].take_deliveries() == []     # sim fan-out skips the sender


def test_every_node_hears_every_publisher(make_cluster):
    net, runner, nodes = make_cluster(4, channels=("status", "telemetry"))
    runner.start_all()
    assert settle(runner, nodes)

    for i in range(4):
        runner.publish(i, "status", b"hi from %d" % i)
        runner.publish(i, "telemetry", b"t%d" % i)
    runner.run_until(net.now + 1.0)
    for i, node in enumerate(nodes):
        got = sorted(node.take_deliveries())
        want = sorted([("status", b"hi from %d" % j) for j in range(4)
                       if j != i]
                      + [("telemetry", b"t%d" % j) for j in range(4)
                         if j != i])
        assert got == want


def test_convergence_under_loss(make_cluster):
    net, runner, nodes = make_cluster(4, seed=11, loss=0.10,
                                      delay_mu=0.025, delay_sigma=0.005)
    runner.start_all()
    assert settle(runner, nodes)
    assert len({n._group_driver.seed for n in nodes}) == 1
    assert len({n._channel_drivers["chatter"].seed for n in nodes}) == 1

    runner.publish(2, "chatter", b"made it through")
    runner.run_until(net.now + 2.0)
    heard = [n for i, n in enumerate(nodes) if i != 2
             and ("chatter", b"made it through") in n.take_deliveries()]
    assert heard        # at 10% loss at least someone gets each copy


def test_late_joiner_rekeys_running_group(make_cluster, member_factory,
                                          roots):
    net, runner, nodes = make_cluster(3, seed=5)
    group = nodes[0].group
    runner.start_all()
    assert settle(runner, nodes)
    assert all(n.group_epoch == 1 for n in nodes)

    cert, key = member_factory(group, ("*",), uid=9)
    late = LcmsecNode(LocalIdentity(9, cert, key), roots, group,
                      ("chatter",), random.Random(999))
    ep = runner.add(late)
    for out in late.start(net.now):
        ep.send(out)
    everyone = nodes + [late]
    assert settle(runner, everyone, t_max=net.now + 30.0)

    # epoch counters are node-local; what must agree is the seed material
    assert all(n.group_epoch == 2 for n in nodes)
    assert all(n.channel_epoch("chatter") == 2 for n in nodes)
    assert late.group_epoch == 1
    assert len({n._group_driver.seed for n in everyone}) == 1
    assert len({n._channel_drivers["chatter"].seed for n in everyone}) == 1

    runner.publish(3, "chatter", b"newcomer speaks")
    runner.run_until(net.now + 1.0)
    for n in nodes:
        assert ("chatter", b"newcomer speaks") in n.take_deliveries()
    runner.publish(0, "chatter", b"welcome aboard")
    runner.run_until(net.now + 1.0)
    assert ("chatter", b"welcome aboard") in late.take_deliveries()


def test_counter_exhaustion_forces_rekey_and_resumes(make_cluster):
    net, runner, nodes = make_cluster(2, seed=3)
    runner.start_all()
    assert settle(runner, nodes)

    seed = nodes[0].channel_seed("chatter")
    key = nodes[0].session.keys.channel_keys("chatter", net.now)[0]
    nodes[0].session.counter.force(0xFFFFFFFF)
    with pytest.raises(CounterExhausted):
        nodes[0].publish("chatter", b"doomed", net.now)

    # the failed publish scheduled a group re-key on its own; wait it out
    assert runner.run_while(
        lambda: not (all(n.ready for n in nodes)
                     and all(n.group_epoch >= 2 for n in nodes)),
        t_max=net.now + 30.0)
    # the channel kept its seed and ran no agreement, yet its key changed
    for node in nodes:
        assert node.channel_epoch("chatter") == 1
        assert node.channel_seed("chatter") == seed
        assert node.session.keys.channel_keys("chatter", net.now)[0] != key
    runner.publish(0, "chatter", b"back on the air")
    runner.run_until(net.now + 1.0)
    assert ("chatter", b"back on the air") in nodes[1].take_deliveries()


def test_channel_key_binds_the_group_seed_not_only_its_instance(
        make_cluster):
    # two sides of a partition can each commit the same public group
    # instance id, with different members and overlapping sender ids;
    # their channel keys must still differ
    net, runner, nodes = make_cluster(2, seed=5)
    runner.start_all()
    assert settle(runner, nodes)
    node = nodes[0]
    group, channel = node._group_result, node._channel_results["chatter"]
    keys = []
    for seed in (group.seed, bytes(len(group.seed))):
        node._group_result = dataclasses.replace(group, seed=seed)
        keys.append(node._channel_material("chatter", channel).key)
    installed = node.session.keys.channel_keys("chatter", net.now)[0]
    assert keys[0] == installed.key
    assert keys[1] != keys[0]


def publish_until(runner, net, senders, channels, done):
    """Publish from each sender on each channel every 3 virtual ms until
    ``done()``; returns (sender index, channel, payload) of each publish
    that was not refused."""
    sent = []
    t_end = net.now + 30.0
    while not done():
        assert net.now < t_end, "re-key did not finish"
        for i in senders:
            for channel in channels:
                payload = b"%d/%d" % (i, len(sent))
                try:
                    runner.publish(i, channel, payload)
                except CounterExhausted:
                    continue
                sent.append((i, channel, payload))
        runner.run_until(net.now + 0.003)
    return sent


def test_rekeys_never_repeat_an_iv_and_deliver_the_gap(
        make_cluster, member_factory, roots, monkeypatch):
    # every seal goes through the tripwire, which raises on a repeated IV
    monkeypatch.setattr(session, "aead_seal", IvLog().seal)
    channels = ("chatter", "status")
    net, runner, nodes = make_cluster(3, channels=channels, seed=7)
    runner.start_all()
    assert settle(runner, nodes)

    # a join re-keys the group; the joiner enters "chatter" only
    cert, key = member_factory(nodes[0].group, ("chatter",), uid=9)
    late = LcmsecNode(LocalIdentity(9, cert, key), roots, nodes[0].group,
                      ("chatter",), random.Random(9))
    ep = runner.add(late)
    for out in late.start(net.now):
        ep.send(out)
    everyone = nodes + [late]
    sent = publish_until(
        runner, net, (0, 1), channels,
        lambda: all(n.ready for n in everyone)
        and all(n.group_epoch == 2 for n in nodes))

    # a spent send counter re-keys the group again
    nodes[0].session.counter.force(0xFFFFFFFF - 4)
    sent += publish_until(
        runner, net, (0, 1), channels,
        lambda: all(n.ready for n in everyone)
        and all(n.group_epoch == 3 for n in nodes))
    runner.publish(0, "status", b"back on the air")
    sent.append((0, "status", b"back on the air"))
    runner.run_until(net.now + 1.0)

    for k, node in enumerate(nodes):
        got = set(node.take_deliveries())
        missed = [(ch, p) for i, ch, p in sent
                  if i != k and (ch, p) not in got]
        assert missed == []


def test_exhaustion_warns_once_per_rekey(make_cluster, caplog):
    net, runner, nodes = make_cluster(2, seed=11)
    runner.start_all()
    assert settle(runner, nodes)
    nodes[0].session.counter.force(0xFFFFFFFF - 2)
    with caplog.at_level(logging.WARNING, logger="lcmsec.node"):
        # every publish refused until the re-key commits is retried
        publish_until(runner, net, (0,), ("chatter",),
                      lambda: all(n.ready and n.group_epoch == 2
                                  for n in nodes))
    warnings = [r for r in caplog.records
                if "send counter exhausted" in r.getMessage()]
    assert len(warnings) == 1


def test_one_chain_check_per_peer_per_node(make_cluster, member_factory,
                                           roots, monkeypatch):
    calls = Counter()
    real = discovery.verify_chain

    def counting(cert, *args, **kwargs):
        calls[cert.fingerprint] += 1
        return real(cert, *args, **kwargs)

    monkeypatch.setattr(discovery, "verify_chain", counting)
    net, runner, nodes = make_cluster(3, channels=("chatter", "status"),
                                      seed=8)
    runner.start_all()
    assert settle(runner, nodes)
    cert, key = member_factory(nodes[0].group, ("chatter",), uid=9)
    late = LcmsecNode(LocalIdentity(9, cert, key), roots, nodes[0].group,
                      ("chatter",), random.Random(9))
    ep = runner.add(late)
    for out in late.start(net.now):
        ep.send(out)
    everyone = nodes + [late]
    assert settle(runner, everyone, t_max=net.now + 30.0)
    # the group and both channel scopes share one verdict per certificate
    assert calls == {n.identity.cert.fingerprint: len(everyone) - 1
                     for n in everyone}


def test_publish_before_ready_raises(make_cluster):
    net, runner, nodes = make_cluster(2)
    with pytest.raises(NoKey):
        nodes[0].publish("chatter", b"too soon", 0.0)


def test_foreign_scope_management_counted(make_cluster, member_factory,
                                          roots):
    net, runner, nodes = make_cluster(1)
    other_group = fresh_group()
    cert, key = member_factory(other_group, ("*",), uid=1)
    stranger = LcmsecNode(LocalIdentity(1, cert, key), roots, other_group,
                          (), random.Random(1))
    for dg in stranger.start(0.0):
        assert nodes[0].handle_datagram(dg, 0.0) == []
    assert nodes[0].stats["foreign_scope"] == 1


def test_junk_datagrams_never_raise(make_cluster):
    net, runner, nodes = make_cluster(1)
    node = nodes[0]
    assert node.handle_datagram(b"", 0.0) == []
    assert node.handle_datagram(b"\x00", 0.0) == []
    assert node.handle_datagram(b"\xff" * 40, 0.0) == []
    rng = random.Random(4)
    for _ in range(50):
        node.handle_datagram(rng.randbytes(rng.randrange(0, 120)), 0.0)


def _run_once(make_cluster, identities, group, seed):
    """One full convergence run; returns (kind counts, group seed)."""
    net, runner, nodes = make_cluster(len(identities), seed=seed,
                                      loss=0.05, delay_mu=0.025,
                                      delay_sigma=0.005, group=group,
                                      identities=identities)
    counts = Counter()
    net.taps.append(
        lambda _, dg: counts.update([wire.decode_management(dg).kind])
        if wire.peek_magic(dg) == wire.MAGIC_MANAGEMENT else None)
    runner.start_all()
    assert settle(runner, nodes)
    return counts, nodes[0]._group_driver.seed


def test_identical_seeds_reproduce_runs(make_cluster, member_factory):
    group = fresh_group()
    identities = []
    for uid in range(1, 4):
        cert, key = member_factory(group, ("*",), uid=uid)
        identities.append(LocalIdentity(uid, cert, key))

    counts_a, seed_a = _run_once(make_cluster, identities, group, seed=21)
    counts_b, seed_b = _run_once(make_cluster, identities, group, seed=21)
    assert counts_a == counts_b
    assert seed_a == seed_b
    assert counts_a[wire.MsgKind.JOIN] >= 3

    counts_c, seed_c = _run_once(make_cluster, identities, group, seed=22)
    assert seed_c != seed_a     # fresh randomness, fresh key material
