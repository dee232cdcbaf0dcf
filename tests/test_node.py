"""Full-stack runs: discovery, key agreement and the data path composed."""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import itertools
import logging
import random
import time
from collections import Counter

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from ivlog import IvLog
from lcmsec import crypto, discovery, gka, session, wire
from lcmsec.errors import (CounterExhausted, Expired, LcmsecError, NoKey,
                           NotAuthorized)
from lcmsec.gka import LocalIdentity
from lcmsec.identity import DomainUrn, PeerCertificate
from lcmsec.node import LcmsecNode
from lcmsec.transport import SimNet, SimRunner, UdpEndpoint, UdpRunner

_group_counter = itertools.count(1)
_MANAGEMENT_MAGIC = wire.MAGIC_MANAGEMENT.to_bytes(4, "big")


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
    assert len({n.drivers[""].seed for n in nodes}) == 1
    assert len({n.drivers["chatter"].seed for n in nodes}) == 1

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
    assert len({n.drivers[""].seed for n in everyone}) == 1
    assert len({n.drivers["chatter"].seed for n in everyone}) == 1

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
    key = nodes[0].session.keys.slots("chatter", net.now)[0].material
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
        newest = node.session.keys.slots("chatter", net.now)[0]
        assert newest.material != key
    runner.publish(0, "chatter", b"back on the air")
    runner.run_until(net.now + 1.0)
    assert ("chatter", b"back on the air") in nodes[1].take_deliveries()


def force_rekey(node, now):
    """Start a group re-key the way a node does: a publish on a spent
    send counter."""
    node.session.counter.force(0xFFFFFFFF)
    with pytest.raises(CounterExhausted):
        node.publish(node.channels[0], b"spent", now)


def failed_agreements(nodes) -> int:
    return sum(d.stats.get("agreements_failed", 0)
               for n in nodes for d in n.drivers.values())


@pytest.mark.parametrize("n, seed", [(2, 3), (4, 7)])
def test_forced_rekey_freezes_every_member(make_cluster, n, seed):
    net, runner, nodes = make_cluster(n, seed=seed)
    runner.start_all()
    assert settle(runner, nodes)
    t0 = net.now
    force_rekey(nodes[0], t0)
    # the committed peers adopt the re-key's view and freeze with it, so
    # the agreement does not first run without them and time out
    assert runner.run_while(
        lambda: not all(nd.ready and nd.group_epoch == 2 for nd in nodes),
        t_max=t0 + 30.0, step=0.005)
    assert failed_agreements(nodes) == 0
    assert net.now - t0 < 1.0


def test_cached_wakeup_matches_a_fresh_walk(make_cluster, member_factory,
                                           roots):
    # a node keeps its next wakeup until a call that can move a timer.
    # After every event of a cold start, a join under publishes and a
    # re-key forced through the node, it equals a fresh walk over the
    # drivers
    net, runner, nodes = make_cluster(3, seed=11, delay_mu=0.025,
                                      delay_sigma=0.005)
    events = Counter()

    def fresh(node):
        return min((t for t in (d.next_wakeup()
                                for d in node.drivers.values())
                    if t is not None), default=None)

    def checked(node):
        def wrap(name):
            call = getattr(node, name)

            def run(*args):
                try:
                    return call(*args)
                finally:
                    data = name == "handle_datagram" and \
                        args[0][:4] != _MANAGEMENT_MAGIC
                    events["data" if data else name] += 1
                    assert node.next_wakeup() == fresh(node), (name, args)
            setattr(node, name, run)
        for name in ("start", "handle_datagram", "on_timer", "publish"):
            wrap(name)
        return node

    for node in nodes:
        checked(node)
    runner.start_all()
    assert settle(runner, nodes)
    cert, key = member_factory(nodes[0].group, ("*",), uid=9)
    late = checked(LcmsecNode(LocalIdentity(9, cert, key), roots,
                              nodes[0].group, ("chatter",),
                              random.Random(99)))
    ep = runner.add(late)
    assert late.next_wakeup() is None       # kept until start moves it
    for out in late.start(net.now):
        ep.send(out)
    everyone = nodes + [late]
    while not (all(n.ready for n in everyone)
               and len({n.group_seed for n in everyone}) == 1):
        assert net.now < 30.0, "the join never completed"
        with contextlib.suppress(LcmsecError):
            runner.publish(0, "chatter", b"meanwhile")
        runner.run_until(net.now + 0.02)
    epoch = nodes[0].group_epoch
    force_rekey(nodes[0], net.now)
    assert runner.run_while(
        lambda: not all(n.ready and n.group_epoch == epoch + 1
                        for n in nodes), net.now + 10.0)
    assert events["data"] > 0 and events["on_timer"] > 0
    assert events["publish"] > 0 and events["start"] == len(everyone)


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
    installed = node.session.keys.slots("chatter", net.now)[0].material
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


def test_join_into_twelve_sends_under_half_the_views(make_cluster,
                                                    member_factory, roots):
    # the membership benchmark's set-up: 12 incumbents on three channels
    # over lossless 25 +/- 5 ms links, then one joiner granted ch0 only.
    # Every incumbent used to re-sign and re-send the same view each gossip
    # tick: 83 view responses per join.
    channels = ("ch0", "ch1", "ch2")
    net, runner, nodes = make_cluster(12, channels=channels, seed=2,
                                      delay_mu=0.025, delay_sigma=0.005)
    runner.start_all()
    assert settle(runner, nodes)
    sent = Counter()
    net.taps.append(
        lambda _, dg: sent.update([wire.decode_management(dg).kind])
        if wire.peek_magic(dg) == wire.MAGIC_MANAGEMENT else None)
    cert, key = member_factory(nodes[0].group, ("ch0",), uid=13)
    late = LcmsecNode(LocalIdentity(13, cert, key), roots, nodes[0].group,
                      ("ch0",), random.Random(13))
    ep = runner.add(late)
    for out in late.start(net.now):
        ep.send(out)
    everyone = nodes + [late]
    assert settle(runner, everyone, t_max=net.now + 30.0)
    assert len({n.group_seed for n in everyone}) == 1
    assert len({n.channel_seed("ch0") for n in everyone}) == 1
    assert failed_agreements(everyone) == 0
    assert sent[wire.MsgKind.JOIN_RESPONSE] < 83 / 2


def add_joiner(runner, nodes, member_factory, roots, uid, seed=0):
    """A node granted ch0 only, started into the running group."""
    group = nodes[0].group
    cert, key = member_factory(group, ("ch0",), uid=uid)
    node = LcmsecNode(LocalIdentity(uid, cert, key), roots, group, ("ch0",),
                      random.Random(seed * 1000 + uid))
    ep = runner.add(node)
    for out in node.start(runner.net.now):
        ep.send(out)
    return node


@pytest.mark.parametrize("n", [12, 40])
def test_committed_group_answers_a_join_once_per_scope(
        make_cluster, member_factory, roots, n):
    # every incumbent used to answer the same JOIN when its random delay
    # ran out before the first answer reached it: 4.8 + 5.7 views per join
    # at N = 12 and 10 + 13.3 at N = 40 (group + channel scope). Only the
    # join's representatives, incumbents 1, 2 and n, answer now, one slot
    # apart, and each skips its answer once it heard an earlier one. The
    # channel scope sends nothing: its ring is the group's.
    net, runner, nodes = make_cluster(n, channels=("ch0",), seed=3,
                                      delay_mu=0.025, delay_sigma=0.005)
    runner.start_all()
    assert settle(runner, nodes)
    sent = []
    net.taps.append(
        lambda _, dg: sent.append(wire.decode_management(dg))
        if wire.peek_magic(dg) == wire.MAGIC_MANAGEMENT else None)
    late = add_joiner(runner, nodes, member_factory, roots, n + 1, seed=3)
    everyone = nodes + [late]
    assert settle(runner, everyone, t_max=net.now + 30.0)
    runner.run_until(net.now + 1.0)     # a late answer would land here
    assert len({nd.group_seed for nd in everyone}) == 1
    assert len({nd.channel_seed("ch0") for nd in everyone}) == 1
    uid_of = {nd.identity.cert.fingerprint: nd.identity.uid
              for nd in everyone}
    kinds = [(e.kind, uid_of[e.signer_ref]) for e in sent]
    views = [uid for kind, uid in kinds
             if kind is wire.MsgKind.JOIN_RESPONSE]
    assert kinds[0] == (wire.MsgKind.JOIN, n + 1)
    assert len(views) <= 3, views
    assert views[0] == 1
    assert {e.channel for e in sent} == {""}
    assert failed_agreements(everyone) == 0


def test_three_joins_into_twelve_complete_under_loss(make_cluster,
                                                     member_factory, roots):
    net, runner, nodes = make_cluster(12, channels=("ch0",), seed=17,
                                      loss=0.10, delay_mu=0.025,
                                      delay_sigma=0.005)
    runner.start_all()
    assert settle(runner, nodes)
    everyone = list(nodes)
    for uid in (13, 14, 15):
        everyone.append(add_joiner(runner, nodes, member_factory, roots, uid,
                                   seed=17))
        assert settle(runner, everyone, t_max=net.now + 30.0)
        assert len({nd.group_seed for nd in everyone}) == 1
        assert len({nd.channel_seed("ch0") for nd in everyone}) == 1


def test_round_datagram_parsed_once(member_factory, roots, monkeypatch):
    # the driver parses a round once and hands its fields to the session
    group = fresh_group()
    a, b = [LcmsecNode(LocalIdentity(uid, *member_factory(group, ("*",),
                                                          uid=uid)),
                       roots, group, (), random.Random(uid))
            for uid in (1, 2)]
    rounds = []

    def send(src, datagrams, now):
        for dg in datagrams:
            if wire.decode_management(dg).kind is wire.MsgKind.GKA_ROUND1:
                rounds.append((src, dg))      # held back until both agree
            else:
                dst = b if src is a else a
                send(dst, dst.handle_datagram(dg, now), now)

    send(a, a.start(0.0), 0.0)
    send(b, b.start(0.0), 0.0)
    while not all(n.drivers[""].phase is discovery.Phase.AGREEING
                  for n in (a, b)):
        now = min(n.next_wakeup() for n in (a, b))
        assert now < 5.0
        for n in (a, b):
            send(n, n.on_timer(now), now)
    calls = []
    real = wire.parse_gka_payload

    def counting(payload):
        calls.append(payload)
        return real(payload)

    for module in (discovery, gka):
        monkeypatch.setattr(module, "parse_gka_payload", counting,
                            raising=False)
    datagram = next(dg for src, dg in rounds if src is b)
    a.handle_datagram(datagram, now)
    assert len(calls) == 1
    assert len(a.drivers[""]._session._z) == 2


class CountingEndpoint(UdpEndpoint):
    """A multicast endpoint that counts the rounds it sends, by scope."""

    def __init__(self, group):
        super().__init__(group)
        self.rounds = Counter()

    def send(self, datagram):
        if wire.peek_magic(datagram) == wire.MAGIC_MANAGEMENT:
            env = wire.decode_management(datagram)
            if env.kind in (wire.MsgKind.GKA_ROUND1, wire.MsgKind.GKA_ROUND2):
                self.rounds[env.channel, env.kind] += 1
        super().send(datagram)


def test_udp_pair_sends_each_round_once(member_factory, roots, monkeypatch):
    # multicast loops every datagram back to its sender, which is what
    # the simulator never does; a node's own rounds used to buy it
    # straggler help, so a lossless set-up sent most rounds twice. The
    # timed resend is pushed out so a stalled host cannot add a copy.
    group = "239.255.77.6:17776"
    monkeypatch.setattr(gka, "REBROADCAST_INTERVAL", 30.0)
    runners = []
    for uid in (1, 2):
        cert, key = member_factory(group, ("*",), uid=uid)
        node = LcmsecNode(LocalIdentity(uid, cert, key), roots, group,
                          ("chatter",), random.Random(uid))
        runners.append(UdpRunner(node, CountingEndpoint(group)))
    try:
        for r in runners:
            r.start()
        a, b = (r.node for r in runners)
        t_end = time.time() + 20.0
        while not (a.ready and b.ready and a.group_seed == b.group_seed
                   and a.channel_seed("chatter") == b.channel_seed("chatter")):
            assert time.time() < t_end, "set-up did not converge"
            for r in runners:
                r.pump(0.002)
        for r in runners:
            r.pump(0.05)                   # late copies would show here
    finally:
        for r in runners:
            r.endpoint.close()
    # the channel's seed derives from the group's: it runs no agreement
    once = {("", kind): 1
            for kind in (wire.MsgKind.GKA_ROUND1, wire.MsgKind.GKA_ROUND2)}
    assert [r.endpoint.rounds for r in runners] == [once, once]
    assert failed_agreements([a, b]) == 0


def test_default_rng_is_the_os_csprng(member_factory, roots):
    # the node's rng draws the agreement's secret scalars; without one it
    # must be the OS CSPRNG, never a Mersenne Twister whose other draws
    # (deadlines, delays, jitter) are visible on the wire
    group = fresh_group()
    runner = SimRunner(SimNet(seed=8))
    nodes = []
    for uid in (1, 2, 3):
        cert, key = member_factory(group, ("*",), uid=uid)
        nodes.append(LcmsecNode(LocalIdentity(uid, cert, key), roots, group,
                                ("chatter",)))
        runner.add(nodes[-1])
    assert all(type(n.rng) is random.SystemRandom for n in nodes)
    runner.start_all()
    assert settle(runner, nodes)
    assert len({n.group_seed for n in nodes}) == 1
    assert len({n.channel_seed("chatter") for n in nodes}) == 1


def test_publish_before_ready_raises(make_cluster):
    net, runner, nodes = make_cluster(2)
    with pytest.raises(NoKey):
        nodes[0].publish("chatter", b"too soon", 0.0)


def test_publish_respects_certificate(make_cluster, member_factory, roots):
    # a channel key exists only for configured channels, and a node runs
    # only with a grant for every channel it is configured with
    group = fresh_group()
    identities = []
    for uid in (1, 2):
        cert, key = member_factory(group, ("chatter",), uid=uid)
        identities.append(LocalIdentity(uid, cert, key))
    net, runner, nodes = make_cluster(2, group=group, identities=identities)
    runner.start_all()
    assert settle(runner, nodes)
    assert nodes[0].publish("chatter", b"ok", net.now)
    with pytest.raises(NoKey):
        nodes[0].publish("forbidden", b"nope", net.now)
    wider = LcmsecNode(identities[0], roots, group,
                       ("chatter", "forbidden"), random.Random(1))
    with pytest.raises(NotAuthorized):
        wider.start(net.now)


def test_ungranted_channel_refused_before_anything_is_sent(make_cluster,
                                                           member_factory):
    # node 2 holds a grant for "other" only but is configured with "news":
    # it must refuse to start, not join the group and fail at its commit
    group = fresh_group()
    identities = []
    for uid, channel in ((1, "*"), (2, "other")):
        cert, key = member_factory(group, (channel,), uid=uid)
        identities.append(LocalIdentity(uid, cert, key))
    _, _, (a, b) = make_cluster(2, channels=("news",), group=group,
                                identities=identities)
    with pytest.raises(NotAuthorized):
        b.start(0.0)
    assert all(d.phase is discovery.Phase.IDLE for d in b.drivers.values())
    assert b.next_wakeup() is None


def test_start_refuses_a_lapsed_own_certificate(make_cluster, ca):
    # the authority issues no window that ended already, so this certificate
    # is built here and signed with the authority's key
    group = fresh_group()
    key = ec.generate_private_key(ec.SECP256R1())
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder()
            .subject_name(x509.Name([x509.NameAttribute(
                NameOID.COMMON_NAME, "node-1")]))
            .issuer_name(ca.cert.subject)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(days=2))
            .not_valid_after(now - datetime.timedelta(days=1))
            .add_extension(x509.SubjectAlternativeName(
                [x509.UniformResourceIdentifier(
                    DomainUrn(group=group, channel="*", id=1).serialize())]),
                critical=False)
            .sign(ca.key, hashes.SHA256()))
    _, _, (node,) = make_cluster(1, group=group, identities=[
        LocalIdentity(1, PeerCertificate(cert), key)])
    with pytest.raises(Expired):
        node.start(0.0)
    assert all(d.phase is discovery.Phase.IDLE for d in node.drivers.values())
    assert node.next_wakeup() is None


def test_own_certificate_lapsed_before_the_group_commit(make_cluster,
                                                        member_factory):
    # b's certificate lapses after a holds b's round 2 but before b
    # completes the group agreement: b commits the group and derives the
    # channel's seed from it, as a does, without raising out of the commit
    # or sending anything
    group = fresh_group()
    cert, key = member_factory(group, ("*",), uid=1)
    cert_b, key_b = member_factory(group, ("*",), uid=2, days=60 / 86400)
    _, _, (a, b) = make_cluster(2, group=group, identities=[
        LocalIdentity(1, cert, key), LocalIdentity(2, cert_b, key_b)])
    queue = [(a, dg) for dg in a.start(0.0)] + \
        [(b, dg) for dg in b.start(0.0)]
    held, now = [], 0.0
    while a.group_seed is None:
        assert now < 5.0, "a never committed"
        while queue:
            src, dg = queue.pop(0)
            dst = b if src is a else a
            if (src is a and wire.decode_management(dg).kind
                    is wire.MsgKind.GKA_ROUND2):
                held.append(dg)       # b completes only once it lapsed
                continue
            queue += [(dst, out) for out in dst.handle_datagram(dg, now)]
        # a committed node with every channel keyed has no timer left
        now = min(w for w in (n.next_wakeup() for n in (a, b))
                  if w is not None)
        queue = [(n, out) for n in (a, b) for out in n.on_timer(now)]
    assert b.group_seed is None and held
    lapsed = (cert_b.cert.not_valid_after_utc
              - b.drivers[""].chains.utc(0.0)).total_seconds() + 0.01
    out = b.handle_datagram(held[0], lapsed)
    assert b.group_seed == a.group_seed
    assert out == []
    assert b.channel_seed("chatter") == a.channel_seed("chatter")
    assert b.ready


def test_member_certificate_lapses_in_a_running_group(make_cluster,
                                                      member_factory):
    # node 4's certificate lapses in virtual time while the group runs: the
    # next re-key leaves it out, and it does not announce itself again
    group = fresh_group()
    identities = []
    for uid, days in ((1, 365), (2, 365), (3, 365), (4, 3 / 86400)):
        cert, key = member_factory(group, ("*",), uid=uid, days=days)
        identities.append(LocalIdentity(uid, cert, key))
    net, runner, nodes = make_cluster(4, group=group, identities=identities)
    runner.start_all()
    assert settle(runner, nodes, t_max=2.0)
    old = nodes[0].group_seed
    runner.run_until(4.0)
    force_rekey(nodes[0], net.now)
    rest, lapsed = nodes[:3], nodes[3]

    def rekeyed():
        seeds = {n.group_seed for n in rest}
        return len(seeds) == 1 and seeds.isdisjoint({old, lapsed.group_seed})

    assert runner.run_while(lambda: not rekeyed(), net.now + 10.0)
    assert lapsed.drivers[""].stats["own_cert_expired"] == 1


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


def test_malformed_management_datagram_counted(make_cluster, monkeypatch):
    # a datagram with the management magic that does not decode is counted
    # before any driver sees it, and costs no signature check
    net, runner, (a, b) = make_cluster(2)
    runner.start_all()
    runner.run_until(0.1)
    verified = []
    monkeypatch.setattr(crypto, "verify",
                        lambda *args: verified.append(args) or True)
    before = [(d.phase, d.state, d.floor) for d in a.drivers.values()]
    for junk in (b"", b"\x01" * 7, b"\xff" * 60):
        assert a.handle_datagram(_MANAGEMENT_MAGIC + junk, net.now) == []
    assert a.session.stats.drops == {"bad_management": 3}
    assert verified == []
    assert [(d.phase, d.state, d.floor)
            for d in a.drivers.values()] == before


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
    return counts, nodes[0].drivers[""].seed


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


# --------------------------------------- channel keys from the group commit


def management_tap(net):
    """Counts the control datagrams ``net`` carries by (kind, scope, uid
    of the signer's certificate)."""
    sent = Counter()

    def tap(_, dg):
        if wire.peek_magic(dg) == wire.MAGIC_MANAGEMENT:
            env = wire.decode_management(dg)
            sent[env.kind, env.channel, env.signer_ref] += 1

    net.taps.append(tap)
    return sent


def by_scope(sent, uid_of):
    """{(kind, scope): senders' uids} of a management tap's counts."""
    out = {}
    for (kind, scope, ref), _ in sent.items():
        out.setdefault((kind, scope), set()).add(uid_of[ref])
    return out


def test_no_channel_scope_sends_anything(make_cluster, member_factory,
                                         roots):
    # a lossless cold start of 12 nodes on 3 channels and one join: every
    # channel's ring is the group's, so its seed derives from the group
    # seed and no channel scope sends a JOIN, a view or a round
    channels = ("ch0", "ch1", "ch2")
    net, runner, nodes = make_cluster(12, channels=channels, seed=4,
                                      delay_mu=0.025, delay_sigma=0.005)
    sent = management_tap(net)
    runner.start_all()
    assert settle(runner, nodes)
    late = add_joiner(runner, nodes, member_factory, roots, 13, seed=4)
    everyone = nodes + [late]
    assert settle(runner, everyone, t_max=net.now + 30.0)
    kinds = Counter()
    for (kind, scope, _), n in sent.items():
        kinds[kind, scope] += n
    assert {scope for _, scope in kinds} == {""}
    assert kinds[wire.MsgKind.JOIN, ""] >= 13
    assert kinds[wire.MsgKind.GKA_ROUND2, ""] > 0
    for ch in channels:
        assert len({n.channel_seed(ch) for n in everyone
                    if ch in n.channels}) == 1
    assert failed_agreements(everyone) == 0


def test_channel_rings_follow_the_group_commit(member_factory, roots,
                                               monkeypatch):
    # ch1's ring is a proper part of the group: members 1-4 list it. 5 does
    # not, and 6 lists it without the grant. So ch1 runs its own agreements:
    # a fresh ring at the cold start, a join ring with the previous seed
    # when 7 joins, and a fresh ring again once 2 restarts without ch1
    monkeypatch.setattr(session, "aead_seal", IvLog().seal)
    group = fresh_group()
    identities = [LocalIdentity(uid, *member_factory(
        group, ("ch0",) if uid == 6 else ("*",), uid=uid))
        for uid in range(1, 8)]
    net = SimNet(seed=6, delay_mu=0.002, delay_sigma=0.0004)
    runner = SimRunner(net)
    nodes = []
    for ident in identities[:6]:
        nodes.append(LcmsecNode(
            ident, roots, group,
            ("ch0",) if ident.uid in (5, 6) else ("ch0", "ch1"),
            random.Random(ident.uid)))
        runner.add(nodes[-1])
    # 6 claims ch1 in its JOINs and views, as a member that lies would
    nodes[5].drivers[""].member = discovery.Member(
        identities[5].cert, ("ch0", "ch1"))
    sent = management_tap(net)
    uid_of = {i.cert.fingerprint: i.uid for i in identities}
    runner.start_all()
    assert settle(runner, nodes)

    def ch1(members):
        return {n.identity.uid: n for n in members if "ch1" in n.channels}

    def check(members):
        ring = ch1(members)
        assert len({n.channel_seed("ch1") for n in ring.values()}) == 1
        for n in members:
            if n.identity.uid not in ring:
                assert "ch1" not in n.drivers
                assert n.session.keys.slots("ch1", net.now) == []
        for i, n in ring.items():
            runner.publish(nodes.index(n), "ch1", b"from %d" % i)
        runner.run_until(net.now + 0.5)
        for i, n in ring.items():
            got = set(n.take_deliveries())
            assert got == {("ch1", b"from %d" % j) for j in ring if j != i}
        assert failed_agreements(members) == 0
        rounds = by_scope(sent, uid_of)
        sent.clear()
        return rounds

    rounds = check(nodes)
    # a fresh ring of 1-4: 5 and 6 neither send nor hold anything of ch1
    assert rounds[wire.MsgKind.GKA_ROUND1, "ch1"] == {1, 2, 3, 4}
    seed = nodes[0].channel_seed("ch1")

    # 7 lists ch1: a join ring whose first three incumbents send, and 3
    # follows from the previous seed
    late = LcmsecNode(identities[6], roots, group, ("ch0", "ch1"),
                      random.Random(7))
    ep = runner.add(late)
    for out in late.start(net.now):
        ep.send(out)
    nodes.append(late)
    assert settle(runner, nodes, t_max=net.now + 30.0)
    finished = nodes[2].drivers["ch1"]._finished
    assert finished.passive and finished.config.previous_seed == seed
    assert finished.config.uids == [1, 2, 4, 7]
    rounds = check(nodes)
    assert rounds[wire.MsgKind.GKA_ROUND1, "ch1"] == {1, 2, 4, 7}
    assert nodes[0].channel_seed("ch1") != seed
    seed = nodes[0].channel_seed("ch1")

    # 2 restarts without ch1 and joins again: 1, 3, 4 and 7 agree afresh,
    # so the seed 2 held does not lead to the next one
    reborn = LcmsecNode(identities[1], roots, group, ("ch0",),
                        random.Random(22))
    runner._nodes[1] = (reborn, runner._nodes[1][1])
    nodes[1] = reborn
    for out in reborn.start(net.now):
        runner._nodes[1][1].send(out)
    assert settle(runner, nodes, t_max=net.now + 30.0)
    rounds = check(nodes)
    assert rounds[wire.MsgKind.GKA_ROUND1, "ch1"] == {1, 3, 4, 7}
    assert nodes[0].channel_seed("ch1") != seed


def test_members_handed_different_rings_hold_different_keys(make_cluster):
    net, runner, nodes = make_cluster(3, seed=9)
    runner.start_all()
    assert settle(runner, nodes)
    node = nodes[0]
    result = node._channel_results["chatter"]
    assert set(result.members) == {1, 2, 3}
    narrower = dataclasses.replace(result, view=discovery.DiscoveryState(
        participants={u: m for u, m in result.members.items() if u != 3}))
    assert node._channel_material("chatter", narrower).key != \
        node._channel_material("chatter", result).key
    # and a seed derived for a ring of every member binds that ring too
    group = node._group_result
    assert crypto.derive_channel_seed(group.seed, node.group, "chatter",
                                      [1, 2]) != result.seed


def names_taking(total):
    """Sorted channel names whose NUL-joined encoding takes ``total`` B."""
    names, left = [], total
    while left:
        if names:
            left -= 1
        size = min(255, left)
        if left - size == 1:
            size -= 1               # leave a separator and one byte
        names.append(f"{len(names):04d}".ljust(size, "x") if size >= 4
                     else "~" * size)
        left -= size
    return names


@pytest.mark.parametrize("past", [0, 1])
def test_view_never_outgrows_one_datagram(make_cluster, member_factory,
                                          past):
    # a joiner's entry that would take the gathering view past one UDP
    # datagram is refused and counted; one byte less still fits exactly
    net, runner, (a,) = make_cluster(1)
    runner.start_all()
    own = a.drivers[""].member
    cert, key = member_factory(a.group, ("*",), uid=2)
    room = wire.MAX_DATAGRAM - wire.view_size(
        a.group, "", wire.member_size(own.cert.der, own.channels))
    channels = names_taking(room - wire.member_size(cert.der, ()) + past)
    assert wire.member_size(cert.der, channels) == room + past
    join = gka.sign_envelope(
        wire.MsgKind.JOIN, a.drivers[""].scope,
        LocalIdentity(2, cert, key),
        wire.encode_join_payload(int(net.now * 1000) + 500, cert.der,
                                 channels))
    datagram = wire.encode_management(join)
    assert len(datagram) <= wire.MAX_DATAGRAM
    out = a.handle_datagram(datagram, net.now)
    t = a.next_wakeup()
    out += a.on_timer(t)
    for dg in out:
        assert len(dg) <= wire.MAX_DATAGRAM
        net.send(0, dg)
    views = [dg for dg in out
             if wire.decode_management(dg).kind is wire.MsgKind.JOIN_RESPONSE]
    if past:
        assert a.drivers[""].stats["view_full"] == 1
        assert set(a.drivers[""].state.joining) == {1}
        assert views == []
    else:
        assert "view_full" not in a.drivers[""].stats
        assert set(a.drivers[""].state.joining) == {1, 2}
        assert [len(v) > wire.MAX_DATAGRAM - 3 for v in views] == [True]
    # nothing raises out of the node while it gathers on
    for _ in range(20):
        t = a.next_wakeup()
        for dg in a.on_timer(t):
            net.send(0, dg)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_members_rekey_past_a_lapsed_member_without_a_failure(
        make_cluster, member_factory, n, seed):
    # the last member's certificate lapses in virtual time while the group
    # runs. Every member leaves it out of the views it merges, gossips and
    # freezes, so the remaining ones re-key at the first try: before, the
    # views that still listed it were refused whole, and the re-key cost
    # every remaining member a failed agreement
    group = fresh_group()
    identities = []
    for uid in range(1, n + 1):
        days = 3 / 86400 if uid == n else 365
        cert, key = member_factory(group, ("*",), uid=uid, days=days)
        identities.append(LocalIdentity(uid, cert, key))
    net, runner, nodes = make_cluster(n, seed=seed, group=group,
                                      identities=identities)
    runner.start_all()
    assert settle(runner, nodes, t_max=2.0)
    old = nodes[0].group_seed
    runner.run_until(4.0)
    t0 = net.now
    force_rekey(nodes[0], t0)
    rest = nodes[:-1]

    def rekeyed():
        seeds = {nd.group_seed for nd in rest}
        return len(seeds) == 1 and old not in seeds and all(
            nd.ready for nd in rest)

    assert runner.run_while(lambda: not rekeyed(), t0 + 10.0, step=0.01)
    assert net.now - t0 < 3.54
    assert failed_agreements(rest) == 0
    assert len({nd.channel_seed("chatter") for nd in rest}) == 1


def keys_agree(nodes) -> bool:
    """Every node ready, with one group seed and one seed per channel."""
    return all(n.ready for n in nodes) and \
        len({n.group_seed for n in nodes}) == 1 and all(
            len({n.channel_seed(ch) for n in nodes if ch in n.channels}) == 1
            for ch in {ch for n in nodes for ch in n.channels})


@pytest.mark.parametrize("seed", [1, 9, 21])
def test_lossy_join_into_a_channel_of_part_of_the_group(member_factory,
                                                        roots, seed):
    # at 10 % loss, 8 nodes cold-start on "all", odd uids on "odd" as well,
    # and a ninth joins both: "odd" runs its own agreements, a fresh ring
    # and then a join ring, and failed agreements must not keep the group
    # from settling. These seeds needed failed agreements in a sweep.
    group = fresh_group()
    net = SimNet(seed=seed, loss=0.10, delay_mu=0.025, delay_sigma=0.005)
    runner = SimRunner(net)

    def add(uid):
        cert, key = member_factory(group, ("*",), uid=uid)
        node = LcmsecNode(LocalIdentity(uid, cert, key), roots, group,
                          ("all", "odd") if uid % 2 else ("all",),
                          random.Random(seed * 1000 + uid))
        ep = runner.add(node)
        return node, ep

    nodes = [add(uid)[0] for uid in range(1, 9)]
    runner.start_all()
    assert runner.run_while(lambda: not keys_agree(nodes), 30.0)
    late, ep = add(9)
    for out in late.start(net.now):
        ep.send(out)
    nodes.append(late)
    assert runner.run_while(lambda: not keys_agree(nodes), net.now + 30.0)
    odd = [n for n in nodes if "odd" in n.channels]
    assert [n.identity.uid for n in odd] == [1, 3, 5, 7, 9]
    assert all(n.session.keys.slots("odd", net.now) == []
               for n in nodes if n not in odd)
