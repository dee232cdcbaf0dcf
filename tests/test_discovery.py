"""Discovery consensus: view ordering, gossip merging, and the full
join / freeze / agree / commit lifecycle over an in-memory network."""

from __future__ import annotations

import dataclasses
import datetime
import functools
import itertools
import random
import time
from collections import Counter

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsec import crypto, discovery, gka
from lcmsec.discovery import (ChainVerdicts, CommitResult, DiscoveryDriver,
                              DiscoveryState, Phase, T_SENTINEL,
                              assign_sender_ids, compare, merge_max)
from lcmsec.ecgroup import P256, P256Group
from lcmsec.errors import NotAuthorized
from lcmsec.gka import LocalIdentity, sign_envelope
from lcmsec.identity import (CertificateAuthority, DomainUrn, LCMDomain,
                             PeerCertificate)
from lcmsec.wire import (ManagementEnvelope, MsgKind, decode_management,
                         encode_gka_payload, encode_join_payload,
                         encode_join_response_payload, encode_management,
                         parse_join_response_payload, signed_region)

_group_counter = itertools.count()


@pytest.fixture
def make_drivers(member_factory, roots):
    def build(uids, channel="", seed_base=1, group=None):
        group = group or f"239.77.{next(_group_counter)}.1:7667"
        drivers = []
        for uid in uids:
            cert, key = member_factory(group, ("*",), uid=uid)
            ident = LocalIdentity(uid=uid, cert=cert, key=key)
            drivers.append(DiscoveryDriver(
                LCMDomain(group, channel), ident, ChainVerdicts(roots),
                random.Random(seed_base * 1000 + uid)))
        return drivers
    return build


def deliver(drivers, envs, now, sent=None):
    queue = list(envs)
    while queue:
        env = decode_management(encode_management(queue.pop(0)))
        for d in drivers:
            more = d.handle(env, now)
            if sent is not None and more:
                sent.setdefault(d.identity.uid, []).extend(more)
            queue.extend(more)


def run_network(drivers, now=0.0, horizon=60.0, join=True, sent=None):
    """Instant-delivery lockstep run until every driver is committed.

    join: True starts everyone, an iterable starts just those drivers.
    """
    outbox = []
    for d in (drivers if join is True else (join or [])):
        out = d.initiate_join(now)
        if sent is not None:
            sent.setdefault(d.identity.uid, []).extend(out)
        outbox.extend(out)
    for _ in range(10000):
        deliver(drivers, outbox, now, sent)
        outbox = []
        if all(d.phase is Phase.COMMITTED for d in drivers):
            return now
        wakes = [w for w in (d.next_wakeup() for d in drivers)
                 if w is not None]
        assert wakes, "network went quiet before committing"
        now = max(now, min(wakes)) + 1e-6
        assert now < horizon, "convergence horizon exceeded"
        for d in drivers:
            out = d.on_timer(now)
            if sent is not None:
                sent.setdefault(d.identity.uid, []).extend(out)
            outbox.extend(out)
    raise AssertionError("run_network did not settle")


# ------------------------------------------------------------ view ordering


def state(pool, p_idx, j_idx, t):
    return DiscoveryState(
        participants={i + 1: pool[i] for i in p_idx},
        joining={i + 1: pool[i] for i in j_idx},
        t_ms=t)


@pytest.fixture(scope="session")
def pool(member_factory):
    return [member_factory("239.200.0.1:7667", ("*",), uid=u)[0]
            for u in range(1, 9)]


def test_compare_examples(pool):
    # more joiners beat fewer at equal participant count
    assert compare(state(pool, [], [0], 100), state(pool, [], [1, 2], 120)) < 0
    # participants dominate joiners
    assert compare(state(pool, [0, 1], [], 5),
                   state(pool, [2], [3, 4, 5, 6, 7], 5)) > 0
    # at equal sizes the EARLIER deadline wins
    assert compare(state(pool, [0], [1], 50), state(pool, [0], [1], 80)) > 0


def test_compare_ties_resolve_by_membership(pool):
    # equal sizes and deadline: the uid sets decide, in the same direction
    # no matter which keys the certificates happen to carry; nothing about
    # the order may depend on key-generation entropy
    a = state(pool, [0, 1], [2], 50)
    b = state(pool, [0, 3], [2], 50)
    assert compare(a, b) == -compare(b, a) != 0
    assert (compare(a, b) < 0) == (sorted(a.participants)
                                   < sorted(b.participants))
    # same uids everywhere: views are interchangeable, compare says so
    assert compare(a, state(pool, [0, 1], [2], 50)) == 0


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_compare_total_order(pool, data):
    def any_state():
        members = data.draw(st.permutations(range(8)))
        p_n = data.draw(st.integers(0, 4))
        j_n = data.draw(st.integers(0, 3))
        t = data.draw(st.integers(0, 5000))
        return state(pool, members[:p_n], members[p_n:p_n + j_n], t)

    a, b, c = any_state(), any_state(), any_state()
    assert compare(a, b) == -compare(b, a)
    assert compare(a, a) == 0
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0
    if compare(a, b) == 0:
        assert a.canonical() == b.canonical()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_merge_is_semilattice(pool, data):
    def any_state():
        members = data.draw(st.permutations(range(8)))
        p_n = data.draw(st.integers(0, 3))
        j_n = data.draw(st.integers(0, 2))
        return state(pool, members[:p_n], members[p_n:p_n + j_n],
                     data.draw(st.integers(0, 1000)))

    a, b, c = any_state(), any_state(), any_state()
    assert merge_max(a, a) is a
    assert compare(merge_max(a, b), merge_max(b, a)) == 0
    assert compare(merge_max(merge_max(a, b), c),
                   merge_max(a, merge_max(b, c))) == 0


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_merge_order_independent(pool, data):
    states = []
    for _ in range(data.draw(st.integers(2, 6))):
        members = data.draw(st.permutations(range(8)))
        p_n = data.draw(st.integers(0, 3))
        states.append(state(pool, members[:p_n], members[p_n:p_n + 2],
                            data.draw(st.integers(0, 1000))))
    baseline = functools.reduce(merge_max, states)
    for _ in range(5):
        shuffled = data.draw(st.permutations(states))
        assert compare(functools.reduce(merge_max, shuffled), baseline) == 0


def test_sender_id_assignment():
    assert assign_sender_ids([7, 3, 9]) == {3: 1, 7: 2, 9: 3}
    ids = assign_sender_ids(range(40, 10, -1))
    assert sorted(ids.values()) == list(range(1, 31))     # bijection


# ------------------------------------------------------- join bookkeeping


def test_initiate_join_shape(make_drivers):
    (d,) = make_drivers([5])
    out = d.initiate_join(1.0)
    assert len(out) == 1 and out[0].kind is MsgKind.JOIN
    assert d.phase is Phase.GATHERING
    assert set(d.state.joining) == {5} and d.state.participants == {}
    # deadline = now + base offset + a small random spread
    assert 1500 <= d.state.t_ms <= 1550


def test_deadlines_carry_random_spread(make_drivers):
    a, b = make_drivers([1, 2])
    a.initiate_join(0.0)
    b.initiate_join(0.0)
    assert a.state.t_ms != b.state.t_ms


def test_initiate_join_rejected_while_agreeing(make_drivers):
    a, b = make_drivers([1, 2])
    deliver([a], b.initiate_join(0.0), 0.0)
    a.initiate_join(0.0)
    a.on_timer(a.state.t_ms / 1000 + 0.001)
    assert a.phase is Phase.AGREEING
    assert a.initiate_join(2.0) == []
    assert a.stats["join_while_agreeing"] == 1


def test_unauthorized_cert_rejected(make_drivers, member_factory):
    (d,) = make_drivers([1])
    d.initiate_join(0.0)
    foreign_cert, foreign_key = member_factory("10.0.9.9:1111", ("*",), 1)
    # a locally unauthorized credential cannot even start
    ident = LocalIdentity(1, foreign_cert, foreign_key)
    rogue = DiscoveryDriver(d.scope, ident, d.chains, random.Random(9))
    with pytest.raises(NotAuthorized):
        rogue.initiate_join(0.0)
    # and a hand-rolled JOIN signed with it is dropped by members
    payload = encode_join_payload(700, foreign_cert.der)
    region = signed_region(MsgKind.JOIN, d.scope.group, d.scope.channel,
                           payload)
    env = ManagementEnvelope(
        kind=MsgKind.JOIN, group=d.scope.group, channel=d.scope.channel,
        payload=payload, signer_ref=foreign_cert.fingerprint,
        signature=crypto.sign(region, foreign_key))
    assert d.handle(env, 0.1) == []
    assert d._pending == {}
    assert d.stats["unauthorized_cert"] == 1


def test_joins_aggregate_into_one_response(make_drivers):
    a, j1, j2, j3 = make_drivers([1, 2, 3, 4])
    a.initiate_join(0.0)
    joins = {j.identity.uid: j.initiate_join(0.01) for j in (j1, j2, j3)}
    for envs in joins.values():
        deliver([a], envs, 0.01)
    deliver([a], joins[2], 0.02)           # replayed JOIN changes nothing
    assert set(a._pending) == {2, 3, 4}
    out = a.on_timer(a._response_at)
    responses = [e for e in out if e.kind is MsgKind.JOIN_RESPONSE]
    assert len(responses) == 1
    t, p_ders, j_ders, floor = parse_join_response_payload(
        responses[0].payload)
    assert p_ders == []
    assert len(j_ders) == 4                # self plus all three joiners
    assert t == a.state.t_ms == min(
        x.state.t_ms for x in (a, j1, j2, j3))
    assert floor == 0


def test_flush_without_news_sends_nothing(make_drivers):
    a, b = make_drivers([1, 2])
    a.initiate_join(0.0)
    deliver([a], b.initiate_join(0.0), 0.0)
    assert a.on_timer(a._response_at) != []
    a._response_at = 0.4                   # nothing pending: stays quiet
    a._gossip_at = 9.0                     # park the periodic re-announces
    a._join_resend_at = 9.0
    assert a.on_timer(0.4) == []


def test_gathering_view_gossip_repeats(make_drivers):
    a, b = make_drivers([1, 2])
    a.initiate_join(0.0)
    deliver([a], b.initiate_join(0.0), 0.0)
    a.on_timer(a._response_at)
    # between the answered flush and the freeze deadline the view is
    # re-announced on its own, so one lost response cannot linger
    seen = 0
    for tick in range(20, 46, 5):
        out = a.on_timer(tick / 100)
        seen += sum(e.kind is MsgKind.JOIN_RESPONSE for e in out)
    assert seen >= 1
    assert a.phase is Phase.GATHERING


def test_join_response_merges_wholesale(make_drivers):
    a, b, c = make_drivers([1, 2, 3])
    a.initiate_join(0.0)
    deliver([a], b.initiate_join(0.0), 0.0)
    small_key = a.state.sort_key()
    # b hears c as well and answers with the bigger view
    deliver([b], c.initiate_join(0.0), 0.0)
    out = b.on_timer(b._response_at)
    deliver([a], out, 0.1)
    assert set(a.state.joining) == {1, 2, 3}
    assert a.state.sort_key() > small_key
    # replaying the response is idempotent
    before = a.state.sort_key()
    deliver([a], out, 0.1)
    assert a.state.sort_key() == before


def test_merge_readds_self(make_drivers):
    a, b, c = make_drivers([1, 2, 3])
    a.initiate_join(0.0)
    # b and c converge without ever hearing a; their view still wins on size
    b.initiate_join(0.0)
    deliver([b], c.initiate_join(0.0), 0.0)
    out = b.on_timer(b._response_at)
    deliver([a], out, 0.1)
    assert 1 in a.state.joining            # self survives the replacement
    assert set(a.state.joining) == {1, 2, 3}


def test_stale_join_dropped(make_drivers):
    a, b = make_drivers([1, 2])
    a.initiate_join(10.0)
    stale = b.initiate_join(0.0)           # deadline long past by delivery
    deliver([a], stale, 15.0)
    assert a._pending == {}
    assert a.stats["stale_join"] == 1


# --------------------------------------------------------- full lifecycle


def test_cold_start_converges(make_drivers):
    drivers = make_drivers([3, 7, 9])
    run_network(drivers)
    seeds = {d.seed for d in drivers}
    assert len(seeds) == 1 and seeds.pop() is not None
    for d in drivers:
        events = d.take_events()
        assert [k for k, _ in events] == ["committed"]
        result = events[0][1]
        assert isinstance(result, CommitResult)
        assert result.epoch == 1
        assert result.sender_ids == {3: 1, 7: 2, 9: 3}
        assert set(result.members) == {3, 7, 9}
    assert all(d.state.t_ms == T_SENTINEL for d in drivers)
    assert all(not d.state.joining for d in drivers)


def test_cold_start_ring_is_uid_ordered(make_drivers):
    drivers = make_drivers([7, 3, 9])
    outbox = []
    for d in drivers:
        outbox.extend(d.initiate_join(0.0))
    deliver(drivers, outbox, 0.0)
    for d in drivers:
        if d._response_at is not None:
            deliver(drivers, d.on_timer(d._response_at), 0.12)
    latest = max(d.state.t_ms for d in drivers) / 1000 + 0.001
    out = drivers[0].on_timer(latest)      # freeze one node, inspect its ring
    assert drivers[0].phase is Phase.AGREEING
    cfg = drivers[0]._session.config
    assert cfg.previous_seed is None
    assert cfg.uids == [3, 7, 9]
    assert any(e.kind is MsgKind.GKA_ROUND1 for e in out)


def test_late_joiner_triggers_join_mode(make_drivers):
    drivers = make_drivers([2, 4, 6, 8], seed_base=3)
    now = run_network(drivers)
    for d in drivers:
        d.take_events()
    joiner = make_drivers([9], group=drivers[0].scope.group,
                          seed_base=77)[0]
    sent: dict[int, list] = {}
    everyone = drivers + [joiner]
    outbox = joiner.initiate_join(now + 1.0)
    sent[9] = list(outbox)
    deliver(everyone, outbox, now + 1.0, sent)
    run_network(everyone, now=now + 1.0, join=False, sent=sent)
    seeds = {d.seed for d in everyone}
    assert len(seeds) == 1
    for d in drivers:
        result = [e for e in d.take_events() if e[0] == "committed"][0][1]
        assert result.epoch == 2
        assert set(result.members) == {2, 4, 6, 8, 9}
        assert result.sender_ids == {2: 1, 4: 2, 6: 3, 8: 4, 9: 5}
    # representatives were 2, 4 and 8; incumbent 6 must have stayed silent
    gka_senders = {uid for uid, envs in sent.items()
                   if any(e.kind in (MsgKind.GKA_ROUND1, MsgKind.GKA_ROUND2)
                          for e in envs)}
    assert gka_senders == {2, 4, 8, 9}


def test_join_ring_starts_with_representatives(make_drivers):
    drivers = make_drivers([1, 2, 3, 4], seed_base=5)
    now = run_network(drivers)
    joiner = make_drivers([9], group=drivers[0].scope.group, seed_base=6)[0]
    everyone = drivers + [joiner]
    deliver(everyone, joiner.initiate_join(now + 0.5), now + 0.5)
    # step one driver at a time; inspect the first one that freezes, before
    # its round-1 broadcast reaches anyone else
    for _ in range(500):
        wakes = [(d.next_wakeup(), i) for i, d in enumerate(everyone)]
        wakes = [(w, i) for w, i in wakes if w is not None]
        assert wakes, "nobody froze"
        w, i = min(wakes)
        now = w + 1e-6
        out = everyone[i].on_timer(now)
        if everyone[i].phase is Phase.AGREEING:
            cfg = everyone[i]._session.config
            assert cfg.uids == [1, 2, 4, 9]
            # an incumbent derives index 0's scalar from the running seed;
            # the joiner holds none, and it never plays index 0
            assert cfg.previous_seed == everyone[i].seed
            return
        deliver(everyone, out, now)
    raise AssertionError("join never froze")


def test_failure_resets_and_rejoins(make_drivers):
    a, b = make_drivers([1, 2])
    deliver([a], b.initiate_join(0.0), 0.0)
    a.initiate_join(0.0)
    a.on_timer(a._response_at)
    deadline = a.state.t_ms / 1000
    a.on_timer(deadline + 0.01)
    assert a.phase is Phase.AGREEING       # b never answers from here on
    out = a.on_timer(deadline + 5.0)
    assert a.phase is Phase.GATHERING      # failed, rejoined
    assert any(k == "failed" for k, _ in a.take_events())
    assert a.state.participants == {}
    assert set(a.state.joining) == {1}
    assert any(e.kind is MsgKind.JOIN for e in out)
    assert a.stats["agreements_failed"] == 1


def test_too_few_extends_deadline(make_drivers):
    (a,) = make_drivers([1])
    a.initiate_join(0.0)
    t0 = a.state.t_ms
    out = a.on_timer(t0 / 1000 + 0.001)
    assert a.phase is Phase.GATHERING
    assert a.state.t_ms > t0
    assert a.stats["too_few"] == 1
    assert any(e.kind is MsgKind.JOIN for e in out)


def test_frozen_phase_ignores_discovery_traffic(make_drivers):
    a, b = make_drivers([1, 2])
    deliver([a], b.initiate_join(0.0), 0.0)
    a.initiate_join(0.0)
    a.on_timer(a._response_at)
    a.on_timer(a.state.t_ms / 1000 + 0.001)
    assert a.phase is Phase.AGREEING
    frozen_key = a.state.sort_key()
    others = make_drivers([4, 5, 6], group=a.scope.group, seed_base=9)
    # a JOIN while frozen is remembered for later but does not touch the view
    deliver([a], others[0].initiate_join(5.0), 5.0)
    assert a.state.sort_key() == frozen_key
    assert 4 in a._pending
    # a bigger response while frozen is dropped outright
    deliver([others[1]], others[2].initiate_join(5.0), 5.0)
    others[1].initiate_join(5.0)
    resp = others[1].on_timer(others[1]._response_at)
    assert any(e.kind is MsgKind.JOIN_RESPONSE for e in resp)
    deliver([a], resp, 5.1)
    assert a.state.sort_key() == frozen_key
    assert a.stats["response_ignored"] == 1


def test_early_freeze_on_observed_round1(make_drivers):
    a, b = make_drivers([1, 2])
    deliver([a, b], a.initiate_join(0.0) + b.initiate_join(0.0), 0.0)
    for d in (a, b):
        if d._response_at is not None:
            deliver([a, b], d.on_timer(d._response_at), 0.15)
    assert a.state.t_ms == b.state.t_ms
    t_dead = b.state.t_ms / 1000
    out = b.on_timer(t_dead + 0.001)
    assert b.phase is Phase.AGREEING
    round1 = [e for e in out if e.kind is MsgKind.GKA_ROUND1]
    assert round1
    # a's clock runs 80 ms behind; the round-1 sighting freezes it anyway
    a.handle(decode_management(encode_management(round1[0])), t_dead - 0.080)
    assert a.phase is Phase.AGREEING
    assert a._session.config.instance_id == b._session.config.instance_id


def committed_instances(drivers):
    return [[r.instance_id for kind, r in d.take_events()
             if kind == "committed"] for d in drivers]


def test_freeze_after_an_authenticated_floor_starts_above_it(make_drivers):
    # the driver alone decides instance freshness: b attempted instance 6
    # before, its views carry that floor, and a adopts it before freezing
    a, b = make_drivers([1, 2])
    b.floor = 6
    run_network([a, b])
    assert committed_instances([a, b]) == [[7], [7]]
    assert a.floor == b.floor == 7


def test_freeze_after_a_failed_agreement_starts_above_it(make_drivers):
    a, b = make_drivers([1, 2])
    deliver([a], b.initiate_join(0.0), 0.0)
    a.initiate_join(0.0)
    a.on_timer(a._response_at)
    deadline = a.state.t_ms / 1000
    a.on_timer(deadline + 0.01)
    assert a._session.config.instance_id == 1 and a.floor == 1
    now = deadline + 5.0
    a.on_timer(now)                        # b never answered: failed
    assert a.phase is Phase.GATHERING and a.floor == 1
    (c,) = make_drivers([3], group=a.scope.group)
    deliver([a], c.initiate_join(now), now)
    a.on_timer(a._response_at)
    a.on_timer(a.state.t_ms / 1000 + 0.001)
    assert a._session.config.instance_id == 2 and a.floor == 2


def test_force_rekey_rotates_seed(make_drivers):
    drivers = make_drivers([1, 2, 3, 4], seed_base=11)
    now = run_network(drivers)
    first = {d.identity.uid: d.seed for d in drivers}
    first_instance = drivers[0].take_events()[0][1].instance_id
    for d in drivers[1:]:
        d.take_events()
    for d in drivers:
        d.force_rekey(now + 0.2)
    assert all(d.phase is Phase.GATHERING for d in drivers)
    run_network(drivers, now=now + 0.2, join=False)
    for d in drivers:
        assert d.epoch == 2
        assert d.seed != first[d.identity.uid]
        result = [e for e in d.take_events() if e[0] == "committed"][0][1]
        assert result.instance_id > first_instance
        assert set(result.members) == {1, 2, 3, 4}


def test_restarted_member_rejoins_and_rekeys(make_drivers, roots):
    """A member that lost its state re-joins with the same credential.

    The others still list it as a participant, so its join must earn it a
    fresh ring slot: listed-in-P-only would make it a passive follower of
    an agreement it has no seed for.
    """
    drivers = make_drivers([2, 5, 8], seed_base=31)
    t = run_network(drivers)
    seed_before = drivers[0].seed
    for d in drivers:
        d.take_events()

    reborn = DiscoveryDriver(drivers[1].scope, drivers[1].identity,
                             ChainVerdicts(roots), random.Random(77))
    survivors = [drivers[0], reborn, drivers[2]]
    sent = {}
    run_network(survivors, now=t + 1.0, join=[reborn], sent=sent)

    assert len({d.seed for d in survivors}) == 1
    assert reborn.seed != seed_before
    assert drivers[0].epoch == 2        # incumbents re-keyed
    assert reborn.epoch == 1            # its own counter restarted from zero
    # the rejoiner transmitted in the ring rather than following passively
    assert any(e.kind in (MsgKind.GKA_ROUND1, MsgKind.GKA_ROUND2)
               for e in sent[5])
    result = [e for e in drivers[0].take_events()
              if e[0] == "committed"][0][1]
    assert set(result.members) == {2, 5, 8}
    assert result.sender_ids == {2: 1, 5: 2, 8: 3}


def test_committed_driver_ignores_replayed_response(make_drivers):
    drivers = make_drivers([1, 2], seed_base=41)
    sent = {}
    t = run_network(drivers, sent=sent)
    a = drivers[0]
    # a peer's response: a's own would be dropped as an echo first
    replay = [e for e in sent[2] if e.kind is MsgKind.JOIN_RESPONSE]
    assert replay
    key_before = a.state.sort_key()
    deliver([a], replay[:1], t + 5.0)
    assert a.stats["stale_response"] == 1
    assert a.phase is Phase.COMMITTED
    assert a.state.sort_key() == key_before


# ------------------------------------------- what replayed traffic costs


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts every ECDSA verification the control plane makes."""
    calls = []
    real = crypto.verify

    def counting(message, signature, public_key):
        calls.append(signature)
        return real(message, signature, public_key)

    monkeypatch.setattr(crypto, "verify", counting)
    return calls


def test_replayed_join_costs_no_verification(make_drivers, verify_calls):
    a, b = make_drivers([1, 2])
    a.initiate_join(0.0)
    join = b.initiate_join(0.0)
    deliver([a], join, 0.01)
    assert len(verify_calls) == 1 and set(a._pending) == {2}
    a.on_timer(a._response_at)               # answered: pending is empty
    for k in range(5):
        deliver([a], join, 0.2 + k / 100)
    assert len(verify_calls) == 1
    # the replay is still an authentic JOIN and is answered as before
    assert set(a._pending) == {2}


def test_replayed_response_costs_no_verification(make_drivers,
                                                 verify_calls):
    a, b, c = make_drivers([1, 2, 3])
    a.initiate_join(0.0)
    deliver([a], b.initiate_join(0.0), 0.0)
    deliver([b], c.initiate_join(0.0), 0.0)
    response = b.on_timer(b._response_at)
    deliver([a], response, 0.1)
    assert set(a.state.joining) == {1, 2, 3}
    before = len(verify_calls)
    state = a.state
    for _ in range(5):
        deliver([a], response, 0.1)
    assert len(verify_calls) == before
    assert a.stats["no_news"] == 5
    assert a.state is state


def test_replayed_rounds_of_finished_instance_cost_nothing(make_drivers,
                                                           verify_calls):
    drivers = make_drivers([1, 2, 3], seed_base=51)
    sent = {}
    t = run_network(drivers, sent=sent)
    rounds = [e for outs in sent.values() for e in outs
              if e.kind in (MsgKind.GKA_ROUND1, MsgKind.GKA_ROUND2)]
    a = drivers[0]
    # rounds of the instance a just finished may buy one answer for a
    # straggler, then nothing until the help interval passes
    verify_calls.clear()
    deliver([a], rounds, t + 0.01)
    first = len(verify_calls)
    assert first <= 1
    for _ in range(3):
        deliver([a], rounds, t + 0.01)
    assert len(verify_calls) == first
    # once a newer agreement finished, the old rounds cost nothing at all
    for d in drivers:
        d.force_rekey(t + 1.0)
    t = run_network(drivers, now=t + 1.0, join=False)
    verify_calls.clear()
    for k in range(4):
        deliver([a], rounds, t + 1.0 + k)
    assert verify_calls == []
    assert a.phase is Phase.COMMITTED and a.epoch == 2


def test_forged_response_with_news_costs_one_verification(make_drivers,
                                                          verify_calls):
    a, b, c = make_drivers([1, 2, 3])
    a.initiate_join(0.0)
    deliver([a], b.initiate_join(0.0), 0.0)
    deliver([b], c.initiate_join(0.0), 0.0)
    env = b.on_timer(b._response_at)[0]
    assert env.kind is MsgKind.JOIN_RESPONSE
    forged = ManagementEnvelope(
        kind=env.kind, group=env.group, channel=env.channel,
        payload=env.payload, signer_ref=env.signer_ref,
        signature=bytes(reversed(env.signature)))
    state, rng = a.state, a.rng.getstate()
    floor, pending = a.floor, dict(a._pending)
    verify_calls.clear()
    assert a.handle(forged, 0.1) == []
    assert len(verify_calls) == 1
    assert a.stats["bad_signature"] == 1
    assert a.state is state and a.rng.getstate() == rng
    assert a.floor == floor and a._pending == pending
    # the genuine one carries the same news and is taken
    assert a.handle(env, 0.1) == []
    assert set(a.state.joining) == {1, 2, 3}


def agree(a, b):
    """Bring a and b to agree on instance 1; returns (b's round 1, now),
    with the round not yet handed to a."""
    deliver([a, b], a.initiate_join(0.0) + b.initiate_join(0.0), 0.0)
    for d in (a, b):
        if d._response_at is not None:
            deliver([a, b], d.on_timer(d._response_at), 0.15)
    t_dead = max(a.state.t_ms, b.state.t_ms) / 1000 + 0.001
    a.on_timer(t_dead)
    out = b.on_timer(t_dead)
    assert a.phase is b.phase is Phase.AGREEING
    return next(e for e in out if e.kind is MsgKind.GKA_ROUND1), t_dead


def agreeing_pair(make_drivers):
    a, b = make_drivers([1, 2])
    return (a, b, *agree(a, b))


def snapshot(d):
    """What an unverified or refused message must leave as it was."""
    session = d._session
    return (d.phase, d.state, d.floor, dict(d._pending), d.rng.getstate(),
            session and (dict(session._z), dict(session._y),
                         dict(session.stats), session.phase))


def test_copy_of_held_round_costs_no_verification(make_drivers,
                                                  verify_calls):
    # the running agreement resends its rounds every 0.25 s, so most
    # copies a member receives are of rounds it already holds
    a, _, round1, t = agreeing_pair(make_drivers)
    verify_calls.clear()
    a.handle(round1, t)
    assert len(verify_calls) == 1 and len(a._session._z) == 2
    before = snapshot(a)
    for k in range(3):
        assert a.handle(round1, t + 0.25 * (k + 1)) == []
    assert len(verify_calls) == 1
    assert snapshot(a) == before


def flip(data: bytes, at: int) -> bytes:
    out = bytearray(data)
    out[at] ^= 0x01
    return bytes(out)


@pytest.mark.parametrize("kind", ["join", "round"])
@pytest.mark.parametrize("field", ["signature", "payload"])
def test_altered_copy_is_verified_and_refused(make_drivers, verify_calls,
                                              kind, field):
    if kind == "join":
        a, b = make_drivers([1, 2])
        a.initiate_join(0.0)
        (genuine,) = b.initiate_join(0.0)
        t = 0.01
        # the payload byte is the low byte of the JOIN's deadline
        at = 7
    else:
        a, _, genuine, t = agreeing_pair(make_drivers)
        # inside the round's element
        at = len(genuine.payload) - 9
    a.handle(genuine, t)
    before = snapshot(a)
    verify_calls.clear()
    if field == "signature":
        altered = dataclasses.replace(genuine,
                                      signature=flip(genuine.signature, 10))
    else:
        altered = dataclasses.replace(genuine,
                                      payload=flip(genuine.payload, at))
    assert a.handle(altered, t) == []
    assert len(verify_calls) == 1
    assert a.stats["bad_signature"] == 1
    assert snapshot(a) == before


def test_expired_certificate_refused_on_every_use(make_drivers, ca, roots,
                                                  verify_calls):
    # b's certificate expires within 2 s; a admitted it before that. The
    # verdict lapses at not_valid_after (RFC 5280 4.1.2.5) even for
    # byte-identical copies of messages a verified while it was valid.
    a, c = make_drivers([1, 3])
    key = ec.generate_private_key(ec.SECP256R1())
    cert = PeerCertificate(ca.issue(
        [DomainUrn(group=a.scope.group, channel="*", id=2)],
        key.public_key(), common_name="node-2", validity_days=2 / 86400))
    b = DiscoveryDriver(a.scope, LocalIdentity(2, cert, key),
                        ChainVerdicts(roots), random.Random(2))
    # a and b agree, and a holds b's round 1
    round1, t = agree(a, b)
    a.handle(round1, t)
    assert len(a._session._z) == 2
    # c gathers and answers b's JOIN, so its pending set empties again
    join = b._join_env
    c.initiate_join(0.0)
    deliver([c], [join], 0.0)
    c.on_timer(c._response_at)
    assert c._pending == {}

    wait = cert.cert.not_valid_after_utc - datetime.datetime.now(
        datetime.timezone.utc)
    time.sleep(max(0.0, wait.total_seconds()) + 0.05)
    verify_calls.clear()
    before = snapshot(a)
    assert c.handle(join, 0.1) == []
    assert c._pending == {} and c.stats["untrusted_cert"] == 1
    assert a.handle(round1, t + 0.01) == []
    assert a.stats["untrusted_cert"] == 1
    assert snapshot(a) == before
    assert verify_calls == []


def test_own_expired_certificate_leaves_the_scope_idle(make_drivers, ca):
    # b's own certificate lapses while its agreement runs; when that
    # agreement times out, b must not raise out of its timer or announce
    # a JOIN its peers would refuse
    (a,) = make_drivers([1])
    key = ec.generate_private_key(ec.SECP256R1())
    cert = PeerCertificate(ca.issue(
        [DomainUrn(group=a.scope.group, channel="*", id=2)],
        key.public_key(), common_name="node-2", validity_days=2 / 86400))
    b = DiscoveryDriver(a.scope, LocalIdentity(2, cert, key),
                        a.chains, random.Random(2))
    _, t = agree(a, b)
    wait = cert.cert.not_valid_after_utc - datetime.datetime.now(
        datetime.timezone.utc)
    time.sleep(max(0.0, wait.total_seconds()) + 0.05)
    assert b.on_timer(t + gka.ROUND_TIMEOUT + 0.01) == []
    assert b.phase is Phase.IDLE
    assert b.stats["agreements_failed"] == 1
    assert b.stats["own_cert_expired"] == 1
    assert b.next_wakeup() is None
    assert b.on_timer(t + 10.0) == []


def test_floor_candidate_counts_one_drop_reason(make_drivers, verify_calls):
    # while agreeing, a view only offers its floor; a forged one counts as
    # bad_signature alone, an authentic one raises the floor
    a, b, _, t = agreeing_pair(make_drivers)
    b.floor = a.floor + 4
    resp = b._view_response()
    forged = dataclasses.replace(
        resp, signature=bytes([resp.signature[0] ^ 1]) + resp.signature[1:])
    before = snapshot(a)
    verify_calls.clear()
    assert a.handle(forged, t) == []
    assert a.stats["bad_signature"] == 1
    assert "response_ignored" not in a.stats and snapshot(a) == before
    assert a.handle(resp, t) == []
    assert a.floor == b.floor and a.stats["response_ignored"] == 1
    assert len(verify_calls) == 2


def test_round_of_the_wrong_kind_dropped_before_verification(make_drivers,
                                                             verify_calls):
    # the parse step checks the round number against the kind: a round-1
    # payload that its member signed as a round 2 never reaches the session
    a, b, round1, t = agreeing_pair(make_drivers)
    malformed = [sign_envelope(MsgKind.GKA_ROUND2, b.scope, b.identity,
                               round1.payload),
                 dataclasses.replace(round1, payload=round1.payload[:-1])]
    before = snapshot(a)
    verify_calls.clear()
    for env in malformed:
        assert a.handle(env, t) == []
    assert a.stats["malformed_gka"] == 2
    assert verify_calls == []
    assert snapshot(a) == before


# ------------------------------------ resends only while a peer lacks them


def kinds(envs):
    return [e.kind for e in envs]


def test_own_echoes_dropped_before_any_check(make_drivers, verify_calls):
    drivers = make_drivers([1, 2, 3], seed_base=51)
    sent = {}
    t = run_network(drivers, sent=sent)
    every_kind = {MsgKind.JOIN, MsgKind.JOIN_RESPONSE, MsgKind.GKA_ROUND1,
                  MsgKind.GKA_ROUND2}
    a = next(d for d in drivers
             if every_kind <= set(kinds(sent[d.identity.uid])))
    own = sent[a.identity.uid]
    before = a.stats["own_echo"]
    verify_calls.clear()
    # a's own rounds looped back used to buy straggler help
    for env in own:
        assert a.handle(env, t + 0.01) == []
    assert verify_calls == []
    assert a.stats["own_echo"] - before == len(own)


def test_wrong_scope_dropped_before_any_check(make_drivers, verify_calls):
    # the scope is checked once, by the driver; the session trusts it
    a, b = make_drivers([1, 2])
    deliver([a, b], a.initiate_join(0.0) + b.initiate_join(0.0), 0.0)
    for d in (a, b):
        if d._response_at is not None:
            deliver([a, b], d.on_timer(d._response_at), 0.15)
    t_dead = max(a.state.t_ms, b.state.t_ms) / 1000 + 0.001
    a.on_timer(t_dead)
    env = [e for e in b.on_timer(t_dead) if e.kind is MsgKind.GKA_ROUND1][0]
    moved = dataclasses.replace(env, channel="elsewhere")
    session, floor = a._session, a.floor
    verify_calls.clear()
    assert a.handle(moved, t_dead) == []
    assert a.stats["wrong_scope"] == 1
    assert verify_calls == []
    assert a._session is session and a.floor == floor
    assert len(session._z) == 1 and session.stats == {}
    # the round as it was signed is taken
    a.handle(env, t_dead)
    assert len(session._z) == 2


def gathering_pair(make_drivers):
    """a and b gathering with equal views; returns (a, b's view)."""
    a, b = make_drivers([1, 2])
    ja, jb = a.initiate_join(0.0), b.initiate_join(0.0)
    deliver([a], jb, 0.0)
    deliver([b], ja, 0.0)
    a.on_timer(a._response_at)
    view = b.on_timer(b._response_at)
    assert kinds(view) == [MsgKind.JOIN_RESPONSE]
    assert a.state.canonical() == b.state.canonical()
    return a, view[0]


def test_forged_copy_of_own_view_does_not_skip_gossip(make_drivers,
                                                      verify_calls):
    a, view = gathering_pair(make_drivers)
    forged = dataclasses.replace(view,
                                 signature=bytes(reversed(view.signature)))
    verify_calls.clear()
    for _ in range(3):
        assert a.handle(forged, 0.105) == []
    assert len(verify_calls) == 3 and a.stats["bad_signature"] == 3
    assert MsgKind.JOIN_RESPONSE in kinds(a.on_timer(a._gossip_at))
    # the genuine copy skips the next tick; one verification per tick
    verify_calls.clear()
    for _ in range(3):
        assert a.handle(view, a.state.t_ms / 1000 - 0.3) == []
    assert len(verify_calls) == 1 and a.stats["view_echo"] == 1
    assert MsgKind.JOIN_RESPONSE not in kinds(a.on_timer(a._gossip_at))
    assert a.stats["gossip_echoed"] == 1
    # nobody repeated the view since: the tick after sends it again
    assert MsgKind.JOIN_RESPONSE in kinds(a.on_timer(a._gossip_at))


def test_differing_view_never_skips_gossip(make_drivers, verify_calls):
    a, b, c = make_drivers([1, 2, 3])
    a.initiate_join(0.0)
    jb, jc = b.initiate_join(0.0), c.initiate_join(0.0)
    deliver([a], jb + jc, 0.0)
    a.on_timer(a._response_at)              # a's view: {1, 2, 3}
    deliver([b], jc, 0.0)
    smaller = b.on_timer(b._response_at)    # b's view: {2, 3}
    verify_calls.clear()
    assert a.handle(smaller[0], 0.105) == []
    assert verify_calls == [] and a.stats["no_news"] == 1
    assert MsgKind.JOIN_RESPONSE in kinds(a.on_timer(a._gossip_at))


def gossip_ticks(d, now, count):
    """Run ``count`` of d's gossip ticks; returns their times and what d
    sent, by kind."""
    times, sent = [], Counter()
    for _ in range(count):
        now = d.next_wakeup()
        assert now == d._gossip_at
        sent.update(kinds(d.on_timer(now)))
        times.append(now)
    return times, sent


def assert_paced(start, times, intervals):
    """Each gap between ticks lies in the jitter range of its interval."""
    gaps = [t - s for s, t in zip([start] + times, times)]
    for gap, interval in zip(gaps, intervals, strict=True):
        assert 0.75 * interval <= gap + 1e-9 <= 1.25 * interval, (gaps,
                                                                 intervals)


@pytest.mark.parametrize("channel", ["", "chatter"])
def test_view_gossip_doubles_while_the_view_holds(make_drivers,
                                                  member_factory, channel):
    # Trickle (RFC 6206): a gathering gossips its view at VIEW_GOSSIP, and
    # the interval doubles after every tick at which view and floor held,
    # up to VIEW_GOSSIP_MAX; a changed floor or view drops it back at once
    a, b = make_drivers([1, 2], channel=channel)
    t = run_network([a, b])
    base, cap = discovery.VIEW_GOSSIP, discovery.VIEW_GOSSIP_MAX
    assert cap == 4 * base

    def join(uid, now):
        cert, key = member_factory(a.scope.group, ("*",), uid)
        # a deadline 20 s out keeps the gathering open for every tick
        deliver([a], [signed_join(a.scope, cert, key,
                                  int(now * 1000) + 20_000)], now)
        flush = a._response_at
        assert kinds(a.on_timer(flush)) == [MsgKind.JOIN_RESPONSE]
        return flush

    start = join(3, t)
    assert a.phase is Phase.GATHERING
    times, sent = gossip_ticks(a, start, 5)
    assert_paced(start, times, [base, 2 * base, cap, cap, cap])
    # b is committed and silent, so nothing echoes: every tick sends
    assert sent == {MsgKind.JOIN_RESPONSE: 5}

    # an authenticated floor above a's resets the pace at once
    b.floor = a.floor + 2
    changed = times[-1] + 0.05
    deliver([a], [b._view_response()], changed)
    assert a.floor == b.floor
    times, sent = gossip_ticks(a, changed, 2)
    assert_paced(changed, times, [base, 2 * base])

    # so does a changed view: a new joiner, flushed at once
    start = join(4, times[-1] + 0.05)
    assert set(a.state.joining) == {3, 4}
    times, sent = gossip_ticks(a, start, 3)
    assert_paced(start, times, [base, 2 * base, cap])
    assert sent == {MsgKind.JOIN_RESPONSE: 3}


def test_joiner_stops_announcing_once_a_view_lists_it(make_drivers):
    a, b = make_drivers([1, 2])
    ja = a.initiate_join(0.0)
    b.initiate_join(0.0)
    assert MsgKind.JOIN in kinds(a.on_timer(0.2))
    deliver([b], ja, 0.2)
    deliver([a], b.on_timer(b._response_at), 0.3)
    assert 1 in a.state.joining
    sent = []
    now = 0.3
    while a.phase is Phase.GATHERING:
        now = a.next_wakeup()
        sent += a.on_timer(now)
    assert MsgKind.JOIN not in kinds(sent)
    # a restart announces again, and keeps announcing until heard
    assert kinds(a._restart("test", now)) == [MsgKind.JOIN]
    assert MsgKind.JOIN in kinds(a.on_timer(now + 0.2))


@pytest.fixture
def chain_calls(monkeypatch):
    """Counts every certificate chain check the drivers make."""
    calls = []
    real = discovery.verify_chain

    def counting(cert, roots, *args, **kwargs):
        calls.append(cert.fingerprint)
        return real(cert, roots, *args, **kwargs)

    monkeypatch.setattr(discovery, "verify_chain", counting)
    return calls


def signed_join(scope, cert, key, t_ms):
    payload = encode_join_payload(t_ms, cert.der)
    region = signed_region(MsgKind.JOIN, scope.group, scope.channel, payload)
    return ManagementEnvelope(
        kind=MsgKind.JOIN, group=scope.group, channel=scope.channel,
        payload=payload, signer_ref=cert.fingerprint,
        signature=crypto.sign(region, key))


def test_chain_verdict_outlives_a_root_that_did_not_sign(tmp_path):
    # a store that keeps the old root through a rotation: the old root
    # lapsing ends trust in what it signed, not in the new root's members
    old = CertificateAuthority.create(tmp_path / "old", validity_days=1)
    new = CertificateAuthority.create(tmp_path / "new")
    group = f"239.77.{next(_group_counter)}.1:7667"

    def member(authority, uid):
        key = ec.generate_private_key(ec.SECP256R1())
        return PeerCertificate(authority.issue(
            [DomainUrn(group=group, channel="*", id=uid)], key.public_key()))

    kept, lapsed = member(new, 1), member(old, 2)
    now = datetime.datetime.now(datetime.timezone.utc)
    later = old.cert.not_valid_after_utc + datetime.timedelta(seconds=1)
    chains = ChainVerdicts([old.cert, new.cert])
    assert chains.trusted(kept, now) and chains.trusted(lapsed, now)
    assert chains.trusted(kept, later)
    assert not chains.trusted(lapsed, later)
    assert ChainVerdicts([old.cert, new.cert]).trusted(kept, later)
    # the member's own expiry still ends it
    expired = kept.cert.not_valid_after_utc + datetime.timedelta(seconds=1)
    assert not chains.trusted(kept, expired)
    assert not ChainVerdicts([old.cert, new.cert]).trusted(kept, expired)


def test_refused_certificate_chain_checked_once(make_drivers, member_factory,
                                               chain_calls):
    (d,) = make_drivers([1])
    d.initiate_join(0.0)
    # criterion 10's outsider: a valid chain, but its only grant names a
    # different group
    cert, key = member_factory("239.77.250.1:7667", ("*",), 3)
    env = signed_join(d.scope, cert, key, 900)
    for _ in range(5):
        assert d.handle(env, 0.1) == []
    assert chain_calls == [cert.fingerprint]
    assert d.stats["unauthorized_cert"] == 5
    assert d._pending == {}


def test_untrusted_chain_is_not_remembered(make_drivers, tmp_path,
                                           chain_calls):
    (d,) = make_drivers([1])
    d.initiate_join(0.0)
    rogue_ca = CertificateAuthority.create(tmp_path / "rogue")
    key = ec.generate_private_key(ec.SECP256R1())
    cert = PeerCertificate(rogue_ca.issue(
        [DomainUrn(group=d.scope.group, channel="*", id=4)],
        key.public_key(), common_name="mallory"))
    env = signed_join(d.scope, cert, key, 900)
    for _ in range(3):
        assert d.handle(env, 0.1) == []
    assert len(chain_calls) == 3
    assert d.stats["untrusted_cert"] == 3


def test_chain_verdict_shared_but_grants_stay_per_scope(member_factory, roots,
                                                        chain_calls):
    group = f"239.77.{next(_group_counter)}.1:7667"
    cert, key = member_factory(group, ("*",), 1)
    ident = LocalIdentity(uid=1, cert=cert, key=key)
    chains, rng = ChainVerdicts(roots), random.Random(1)
    granted, other = [DiscoveryDriver(LCMDomain(group, ch), ident, chains, rng)
                      for ch in ("a", "b")]
    for d in (granted, other):
        d.initiate_join(0.0)
    peer_cert, peer_key = member_factory(group, ("a",), 2)
    for d in (granted, other):
        for _ in range(3):
            assert d.handle(signed_join(d.scope, peer_cert, peer_key, 900),
                            0.1) == []
    # one chain check for both scopes; the grant is still checked per scope
    assert chain_calls == [peer_cert.fingerprint]
    assert 2 in granted._pending
    assert other._pending == {}
    assert other.stats["unauthorized_cert"] == 3
    # so in the scope it has no grant for, the peer stays an unknown signer
    round1 = ManagementEnvelope(
        kind=MsgKind.GKA_ROUND1, group=group, channel="b", payload=b"",
        signer_ref=peer_cert.fingerprint, signature=b"")
    assert other.handle(round1, 0.2) == []
    assert other.stats["unknown_gka_signer"] == 1


def test_chain_verdict_never_outlives_the_certificate(member_factory, roots,
                                                      chain_calls):
    cert, _ = member_factory(f"239.77.{next(_group_counter)}.1:7667",
                             ("*",), 1)
    chains = ChainVerdicts(roots)
    expiry = cert.cert.not_valid_after_utc
    assert chains.trusted(cert, datetime.datetime.now(datetime.timezone.utc))
    assert chains.trusted(cert, expiry)
    assert len(chain_calls) == 1
    # past its not_valid_after the kept verdict lapses: it fails on every
    # use, with no second chain check
    assert not chains.trusted(cert, expiry + datetime.timedelta(seconds=1))
    assert not chains.trusted(cert, expiry + datetime.timedelta(seconds=2))
    assert len(chain_calls) == 1
    # a node that never checked it refuses it too
    assert not ChainVerdicts(roots).trusted(
        cert, expiry + datetime.timedelta(seconds=1))
    assert len(chain_calls) == 2


# ------------------------------------ round 1 only from the ring neighbours


@pytest.fixture
def decode_calls(monkeypatch):
    """Counts every P-256 element the control plane decodes."""
    calls = []
    real = P256Group.deserialize

    def counting(self, data):
        calls.append(data)
        return real(self, data)

    monkeypatch.setattr(P256Group, "deserialize", counting)
    return calls


def freeze_holding_round1(drivers, now):
    """Run the drivers' timers, delivering everything but round 1, until
    every one agrees; returns the held round 1 by uid and the time."""
    held = {}
    while not all(d.phase is Phase.AGREEING for d in drivers):
        now = min(w for w in (d.next_wakeup() for d in drivers)
                  if w is not None)
        for d in drivers:
            for env in d.on_timer(now):
                if env.kind is MsgKind.GKA_ROUND1:
                    held[d.identity.uid] = env
                else:
                    deliver(drivers, [env], now)
    return held, now


def agreeing_ring(make_drivers, uids):
    drivers = make_drivers(uids)
    deliver(drivers, [e for d in drivers for e in d.initiate_join(0.0)], 0.0)
    return (drivers, *freeze_holding_round1(drivers, 0.0))


def test_round1_the_key_never_reads_costs_no_check(make_drivers,
                                                   verify_calls,
                                                   decode_calls):
    # a member's key reads its two neighbours' round 1 and no other
    drivers, round1, t = agreeing_ring(make_drivers, [1, 2, 3, 4, 5])
    a = drivers[0]
    assert a._session.round1_uids == {5, 1, 2}
    no_news = a.stats.get("no_news", 0)
    before = snapshot(a)
    verify_calls.clear()
    decode_calls.clear()
    for uid in (3, 4):
        assert a.handle(round1[uid], t) == []
    assert verify_calls == [] and decode_calls == []
    assert a.stats["no_news"] - no_news == 2
    assert snapshot(a) == before
    # the neighbours' round 1 are checked, and a's own round 2 follows
    out = []
    for uid in (2, 5):
        out += a.handle(round1[uid], t)
    assert len(verify_calls) == 2 and len(decode_calls) == 2
    assert kinds(out) == [MsgKind.GKA_ROUND2]


def test_passive_follower_checks_the_representative_it_simulates(
        make_drivers, verify_calls, decode_calls):
    # five incumbents, one joiner: the ring is reps 1, 2, 5 then joiner 6,
    # and incumbent 3 follows passively as representative 1
    incumbents = make_drivers([1, 2, 3, 4, 5])
    t = run_network(incumbents)
    (joiner,) = make_drivers([6], group=incumbents[0].scope.group)
    drivers = incumbents + [joiner]
    deliver(drivers, joiner.initiate_join(t), t)
    round1, t = freeze_holding_round1(drivers, t)
    p = incumbents[2]
    assert p._session.passive and p._session.round1_uids == {6, 1, 2}
    before = snapshot(p)
    verify_calls.clear()
    decode_calls.clear()
    assert p.handle(round1[5], t) == []
    assert verify_calls == [] and decode_calls == []
    assert snapshot(p) == before
    # the simulated representative's round 1 is verified and compared
    assert p.handle(round1[1], t) == []
    assert len(verify_calls) == 1 and len(decode_calls) == 1
    assert snapshot(p) == before
    rep = incumbents[0]
    other = P256.exp(P256.generator, 12345)
    forged = sign_envelope(MsgKind.GKA_ROUND1, rep.scope, rep.identity,
                           encode_gka_payload(1, 1, P256.serialize(other),
                                              rep._session.config.instance_id))
    p.handle(forged, t)
    assert len(verify_calls) == 2
    assert p.stats["agreements_failed"] == 1
    assert p.take_events()[-1] == (
        "failed", "representative traffic does not match the previous seed")


def test_round1_from_a_member_missing_from_the_ring_restarts(
        make_drivers, verify_calls):
    # e is admitted but outside the frozen ring; its round 1 of the running
    # instance shows the views diverged, so it is verified and restarts
    drivers, _, t = agreeing_ring(make_drivers, [1, 2, 3, 4])
    a = drivers[0]
    (e,) = make_drivers([5], group=a.scope.group)
    deliver([a], e.initiate_join(t), t)
    instance = a._session.config.instance_id
    stray = sign_envelope(
        MsgKind.GKA_ROUND1, a.scope, e.identity,
        encode_gka_payload(5, 1, P256.serialize(P256.generator), instance))
    verify_calls.clear()
    assert kinds(a.handle(stray, t)) == [MsgKind.JOIN]
    assert len(verify_calls) == 1
    assert a.stats["agreements_failed"] == 1
    assert a.phase is Phase.GATHERING


# ------------------------------------------------ malformed control input


def forged_views(a, b, cb2, d):
    """Forged JOINs and views for gathering ``a``, which holds b's JOIN,
    by the drop reason each must count. ``cb2`` is a second certificate
    for b's uid, ``d`` an identity a has never seen."""
    t, scope = a.state.t_ms, a.scope
    ca_, cb = a.identity.cert, b.identity.cert

    def view(participants, joiners, signer=b.identity):
        return sign_envelope(MsgKind.JOIN_RESPONSE, scope, signer,
                             encode_join_response_payload(
                                 t, [(u, c.der) for u, c in participants],
                                 [(u, c.der) for u, c in joiners], 0))

    honest = view([], [(1, ca_), (2, cb)])
    return {
        "malformed_join": sign_envelope(MsgKind.JOIN, scope, b.identity,
                                        b"\x00" * 5),
        # b signs a JOIN that carries a certificate other than its own
        "bad_signature": sign_envelope(MsgKind.JOIN, scope, b.identity,
                                       encode_join_payload(t, d.cert.der)),
        "malformed_response": dataclasses.replace(
            honest, payload=honest.payload[:-1]),
        "malformed_response/cert": sign_envelope(
            MsgKind.JOIN_RESPONSE, scope, b.identity,
            encode_join_response_payload(t, [], [(2, b"\x30\x00")], 0)),
        # one uid twice among the joiners
        "bad_member_cert": view([], [(1, ca_), (2, cb), (2, cb)]),
        # a participant re-joins under another certificate
        "bad_member_cert/rejoin": view([(2, cb)], [(1, ca_), (2, cb2)]),
        # the encoding lists b before a
        "noncanonical_response": view([], [(1, cb), (2, ca_)]),
        "unknown_responder": view([], [(1, ca_), (2, cb)], signer=d),
        # b advertises a view it is not in
        "foreign_responder": view([], [(1, ca_)]),
    }


@pytest.mark.parametrize("case", [
    "malformed_join", "bad_signature", "malformed_response",
    "malformed_response/cert", "bad_member_cert", "bad_member_cert/rejoin",
    "noncanonical_response", "unknown_responder", "foreign_responder"])
def test_malformed_control_input_dropped_before_verification(
        make_drivers, member_factory, roots, tmp_path, verify_calls, case):
    a, b = make_drivers([1, 2])
    # a second root a trusts, to issue another certificate for uid 2
    ca2 = CertificateAuthority.create(tmp_path / "ca2")
    a.chains = ChainVerdicts([*roots, ca2.cert])
    cb2 = PeerCertificate(ca2.issue(
        [DomainUrn(group=a.scope.group, channel="*", id=2)],
        ec.generate_private_key(ec.SECP256R1()).public_key()))
    d = LocalIdentity(4, *member_factory(a.scope.group, ("*",), uid=4))
    a.initiate_join(0.0)
    deliver([a], b.initiate_join(0.0), 0.0)
    env = forged_views(a, b, cb2, d)[case]
    reason = case.split("/")[0]
    before, stats = snapshot(a), dict(a.stats)
    verify_calls.clear()
    assert a.handle(decode_management(encode_management(env)), 0.01) == []
    assert verify_calls == []
    assert a.stats == {**stats, reason: stats.get(reason, 0) + 1}
    assert snapshot(a) == before


def test_round_with_a_bad_element_verified_then_dropped(make_drivers,
                                                        verify_calls):
    # a correctly signed round whose element is no curve point passes the
    # signature gate and is dropped by the session
    a, b, round1, t = agreeing_pair(make_drivers)
    session, state, floor = a._session, a.state, a.floor
    bad = sign_envelope(MsgKind.GKA_ROUND1, b.scope, b.identity,
                        encode_gka_payload(2, 1, b"\x02" + b"\xff" * 32,
                                           session.config.instance_id))
    verify_calls.clear()
    assert a.handle(bad, t) == []
    assert len(verify_calls) == 1
    assert session.stats == {"bad_element": 1}
    assert a._session is session and len(session._z) == 1
    assert a.state is state and a.floor == floor
    # the genuine round is still taken
    assert kinds(a.handle(round1, t)) == [MsgKind.GKA_ROUND2]
