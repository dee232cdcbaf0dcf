"""Full-stack runs: discovery, key agreement and the data path composed."""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import logging
import random
import time
from collections import Counter

import pytest
from cryptography.hazmat.primitives.asymmetric import ec

from ivlog import IvLog
from lcmsec import crypto, discovery, gka, session, wire
from lcmsec.errors import CounterExhausted, NoKey, NotAuthorized
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


def failed_agreements(nodes) -> int:
    return sum(d.stats.get("agreements_failed", 0)
               for n in nodes for d in n.drivers.values())


@pytest.mark.parametrize("n, seed", [(2, 3), (4, 7)])
def test_forced_rekey_freezes_every_member(make_cluster, n, seed):
    net, runner, nodes = make_cluster(n, seed=seed)
    runner.start_all()
    assert settle(runner, nodes)
    t0 = net.now
    nodes[0].session.counter.force(0xFFFFFFFF)
    with pytest.raises(CounterExhausted):
        nodes[0].publish("chatter", b"spent", t0)
    # the committed peers adopt the re-key's view and freeze with it, so
    # the agreement does not first run without them and time out
    assert runner.run_while(
        lambda: not all(nd.ready and nd.group_epoch == 2 for nd in nodes),
        t_max=t0 + 30.0, step=0.005)
    assert failed_agreements(nodes) == 0
    assert net.now - t0 < 1.0


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
    once = {(ch, kind): 1 for ch in ("", "chatter")
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


def test_own_certificate_lapsed_before_the_group_commit(make_cluster,
                                                        member_factory, ca):
    # b's certificate lapses after a holds b's round 2 but before b
    # completes the group agreement: b commits the group, and its channel
    # scope stays idle instead of raising out of the commit
    group = fresh_group()
    cert, key = member_factory(group, ("*",), uid=1)
    key_b = ec.generate_private_key(ec.SECP256R1())
    cert_b = PeerCertificate(ca.issue(
        [DomainUrn(group=group, channel="*", id=2)], key_b.public_key(),
        common_name="node-2", validity_days=2 / 86400))
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
        now = min(n.next_wakeup() for n in (a, b))
        queue = [(n, out) for n in (a, b) for out in n.on_timer(now)]
    assert b.group_seed is None and held
    wait = cert_b.cert.not_valid_after_utc - datetime.datetime.now(
        datetime.timezone.utc)
    time.sleep(max(0.0, wait.total_seconds()) + 0.05)
    out = b.handle_datagram(held[0], now)
    assert b.group_seed == a.group_seed
    assert out == []                   # no channel JOIN under a lapsed cert
    assert b.drivers["chatter"].phase is discovery.Phase.IDLE
    assert b.drivers["chatter"].stats["own_cert_expired"] == 1


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
