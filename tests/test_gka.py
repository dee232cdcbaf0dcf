"""Ring agreement tests: key equality against a scalar oracle, joins with
passive followers, replay rejection, and failure modes."""

from __future__ import annotations

import dataclasses
import itertools
import random
from functools import reduce

import pytest

from lcmsec.discovery import ChainVerdicts, DiscoveryDriver
from lcmsec.ecgroup import P256, P256_ORDER
from lcmsec.gka import (GkaPhase, GkaSession, LocalIdentity, RingConfig,
                        ring_order)
from lcmsec.identity import LCMDomain
from lcmsec.wire import (MsgKind, decode_management, encode_gka_payload,
                         encode_management, parse_gka_payload)

_group_counter = itertools.count()


@pytest.fixture
def make_members(member_factory):
    def build(uids, channel=""):
        group = f"239.9.{next(_group_counter)}.1:7667"
        members = []
        for uid in uids:
            cert, key = member_factory(group, channels=("*",), uid=uid)
            members.append(LocalIdentity(uid=uid, cert=cert, key=key))
        return LCMDomain(group, channel), members
    return build


def keyagree_sessions(scope, members, d=1, seed=0, **kw):
    ordered = sorted(members, key=lambda m: m.uid)
    ring = [(m.uid, m.cert) for m in ordered]
    config = RingConfig(scope, ring, d)
    return [GkaSession(config, m, rng=random.Random(seed * 100 + i), **kw)
            for i, m in enumerate(ordered)]


def hand_in(session, env, now):
    """Hand one round envelope to a session as the driver does: parsed."""
    return session.handle(env.signer_ref, *parse_gka_payload(env.payload),
                          now)


def run_to_completion(sessions, now=0.0):
    """Broadcasts every outgoing envelope to every session, transcript out."""
    queue = []
    for s in sessions:
        queue.extend(s.start(now))
    transcript = []
    while queue:
        env = queue.pop(0)
        wire_copy = decode_management(encode_management(env))
        transcript.append(wire_copy)
        for s in sessions:
            queue.extend(hand_in(s, wire_copy, now))
    return transcript


def oracle_seed(ring_sessions):
    """g raised to the sum of adjacent scalar products, from all secrets."""
    xs = [s._x for s in ring_sessions]
    n = len(xs)
    total = sum(xs[i] * xs[(i + 1) % n] for i in range(n)) % P256_ORDER
    return P256.serialize(P256.exp(P256.generator, total))


# ------------------------------------------------------------ honest rings


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_keyagree_matches_oracle(make_members, n):
    scope, members = make_members(range(1, n + 1))
    sessions = keyagree_sessions(scope, members, seed=n)
    run_to_completion(sessions)
    assert all(s.phase is GkaPhase.DONE for s in sessions)
    seeds = {s.seed for s in sessions}
    assert len(seeds) == 1
    assert seeds.pop() == oracle_seed(sessions)


def test_two_node_ring_degenerates(make_members):
    scope, members = make_members([3, 9])
    sessions = keyagree_sessions(scope, members)
    run_to_completion(sessions)
    for s in sessions:
        assert s._kl == s._kr          # both neighbors are the same node
        assert s._y[s.index] is None   # ratio collapses to identity
        assert s.phase is GkaPhase.DONE


def test_telescoping_fold_is_identity(make_members):
    scope, members = make_members(range(1, 6))
    sessions = keyagree_sessions(scope, members, seed=5)
    run_to_completion(sessions)
    ys = [sessions[0]._y[i] for i in range(len(sessions))]
    assert reduce(P256.op, ys) is None


def test_ring_order_for_both_modes():
    def order(p_uids, j_uids):
        return [u for u, _ in ring_order([(u, None) for u in p_uids],
                                         [(u, None) for u in j_uids])]
    # a fresh ring runs in uid order, whatever order the view lists it in
    assert order([], [7, 3, 9]) == [3, 7, 9]
    # a join ring: representatives by uid, then the joiners by uid
    assert order([9, 1, 7, 4, 2], [12, 11]) == [1, 2, 9, 11, 12]
    assert order([6, 5], [8]) == [5, 6, 8]


# ------------------------------------------------------------------- joins


def join_sessions(scope, members, p_uids, j_uids, d=2,
                  previous_seed=b"\x5c" * 33, rng=None):
    """Every member of one join over ``p_uids``, all given one config.

    Returns the ring members in ring order and the incumbents outside the
    ring; each session derives its own role from the config.
    """
    rng = rng or random.Random(d)
    by_uid = {m.uid: m for m in members}
    config = RingConfig(scope, ring_order(
        [(u, by_uid[u].cert) for u in p_uids],
        [(u, by_uid[u].cert) for u in j_uids]), d, previous_seed)
    actives = [GkaSession(config, by_uid[u],
                          rng=random.Random(rng.getrandbits(32)))
               for u in config.uids]
    passives = [GkaSession(config, by_uid[u])
                for u in sorted(set(p_uids) - set(config.uids))]
    assert not any(s.passive for s in actives)
    assert all(s.passive and s.index == 0 for s in passives)
    return actives, passives


def join_setup(make_members, p_uids, j_uids):
    scope, members = make_members(sorted(p_uids) + sorted(j_uids))
    return (scope, *join_sessions(scope, members, p_uids, j_uids))


def test_join_passive_equality(make_members):
    p_uids, j_uids = [1, 2, 4, 7, 9], [11, 12]
    scope, actives, passives = join_setup(make_members, p_uids, j_uids)
    assert actives[0].config.uids == [1, 2, 9, 11, 12]
    transcript = run_to_completion(actives + passives)
    for s in actives + passives:
        assert s.phase is GkaPhase.DONE, s.failure_reason
    seeds = {s.seed for s in actives + passives}
    assert len(seeds) == 1
    assert seeds.pop() == oracle_seed(actives)


def test_transcript_contains_only_ring_uids(make_members):
    p_uids, j_uids = [1, 2, 4, 7, 9], [11, 12]
    scope, actives, passives = join_setup(make_members, p_uids, j_uids)
    transcript = run_to_completion(actives + passives)
    senders = {parse_gka_payload(env.payload)[0] for env in transcript}
    assert senders == {1, 2, 9} | set(j_uids)


def test_join_two_incumbents_dedups_representatives(make_members):
    scope, actives, passives = join_setup(make_members, [5, 6], [8])
    assert actives[0].config.uids == [5, 6, 8]
    assert passives == []
    run_to_completion(actives)
    assert all(s.phase is GkaPhase.DONE for s in actives)


def test_representative_choice():
    def reps(p_uids):
        return [u for u, _ in ring_order([(u, None) for u in p_uids], [])]
    assert reps([4]) == [4]
    assert reps([4, 9]) == [4, 9]
    assert reps([4, 9, 12]) == [4, 9, 12]
    assert reps([4, 9, 12, 20, 33]) == [4, 9, 33]


def test_derived_round1_element_is_deterministic(make_members):
    scope, members = make_members([1, 2, 3])
    ring = [(m.uid, m.cert) for m in members]
    cfg = RingConfig(scope, ring, 3, previous_seed=b"\x77" * 33)
    a = GkaSession(cfg, members[0])
    b = GkaSession(cfg, members[0])
    assert a._my_z == b._my_z
    env_a = a.start(0.0)[0]
    env_b = b.start(0.0)[0]
    assert env_a.payload == env_b.payload


def test_passive_with_wrong_seed_fails(make_members):
    scope, actives, passives = join_setup(make_members, [1, 2, 4, 7, 9],
                                          [11])
    liar = GkaSession(dataclasses.replace(actives[0].config,
                                          previous_seed=b"\x00" * 33),
                      passives[0].identity)
    assert liar.passive
    run_to_completion(actives + [liar])
    assert liar.phase is GkaPhase.FAILED
    assert "previous seed" in liar.failure_reason


def test_passive_must_simulate_first_representative(make_members):
    # an incumbent outside a join ring plays index 0, with the scalar the
    # previous seed derives; a fresh ring has nobody outside it
    scope, members = make_members([1, 2, 3, 4])
    ring = [(m.uid, m.cert) for m in members[:3]]
    join = RingConfig(scope, ring, 2, previous_seed=b"\x11" * 33)
    follower = GkaSession(join, members[3])
    rep = GkaSession(join, members[0], rng=random.Random(1))
    assert follower.passive and follower.index == 0
    assert follower._my_z == rep._my_z
    assert follower.round1_uids == rep.round1_uids == {3, 1, 2}
    assert follower.start(0.0) == [] and follower.sent == []
    with pytest.raises(ValueError):
        GkaSession(RingConfig(scope, ring, 2), members[3])


# ------------------------------------------------------- replay and nonces


def test_replayed_transcript_cannot_touch_new_instance(make_members):
    scope, members = make_members([1, 2, 3])
    old_sessions = keyagree_sessions(scope, members, seed=1)
    old_transcript = run_to_completion(old_sessions)
    ordered = sorted(members, key=lambda m: m.uid)
    ring = [(m.uid, m.cert) for m in ordered]
    config = RingConfig(scope, ring, 2)
    new_sessions = [GkaSession(config, m, rng=random.Random(50 + i))
                    for i, m in enumerate(ordered)]
    for s in new_sessions:
        s.start(0.0)
    # full replay of the captured instance-1 traffic
    for env in old_transcript:
        for s in new_sessions:
            assert hand_in(s, env, 0.0) == []
    for s in new_sessions:
        assert s.phase is GkaPhase.R1_SENT
        assert len(s._z) == 1 and len(s._y) == 0
        assert s.stats.get("wrong_instance", 0) >= len(old_transcript) - 0


def test_completed_instance_ignores_all_traffic(make_members):
    scope, members = make_members([1, 2])
    sessions = keyagree_sessions(scope, members)
    transcript = run_to_completion(sessions)
    seed_before = sessions[0].seed
    for env in transcript:
        assert hand_in(sessions[0], env, 1.0) == []
    assert sessions[0].seed == seed_before


# ------------------------------------------------------ message validation


def valid_round1(sessions, from_idx=1):
    return sessions[from_idx].start(0.0)[0]


def test_tampered_element_dropped(make_members, roots):
    # signatures are checked where envelopes enter a node: the driver
    scope, members = make_members([1, 2])
    a, b = [DiscoveryDriver(scope, m, ChainVerdicts(roots),
                            random.Random(m.uid)) for m in members]
    for src, dst in ((a, b), (b, a)):
        for env in src.initiate_join(0.0):
            dst.handle(env, 0.0)
    for d in (a, b):
        for env in d.on_timer(d._response_at):
            (b if d is a else a).handle(env, 0.15)
    t_dead = max(a.state.t_ms, b.state.t_ms) / 1000 + 0.001
    env = [e for e in b.on_timer(t_dead) if e.kind is MsgKind.GKA_ROUND1][0]
    bad_payload = bytearray(env.payload)
    bad_payload[-9] ^= 0x01   # flip a bit inside the element
    forged = type(env)(kind=env.kind, group=env.group, channel=env.channel,
                       payload=bytes(bad_payload), signer_ref=env.signer_ref,
                       signature=env.signature)
    # while gathering, a forged round-1 must not freeze the view
    assert a.handle(forged, t_dead) == []
    assert a.stats["bad_signature"] == 1
    assert a._session is None and a.floor == 0
    # during the agreement, it must not store an element
    a.on_timer(t_dead)
    assert a._session.config.instance_id == 1
    assert a.handle(forged, t_dead) == []
    assert a.stats["bad_signature"] == 2
    assert len(a._session._z) == 1
    a.handle(env, t_dead)
    assert len(a._session._z) == 2


def test_unknown_sender_dropped(make_members, member_factory):
    scope, members = make_members([1, 2])
    sessions = keyagree_sessions(scope, members)
    sessions[0].start(0.0)
    outsider_cert, outsider_key = member_factory(scope.group, ("*",), uid=40)
    outsider = LocalIdentity(uid=40, cert=outsider_cert, key=outsider_key)
    ring = [(m.uid, m.cert) for m in sorted(members, key=lambda m: m.uid)]
    rogue_ring = sorted(ring + [(40, outsider_cert)], key=lambda p: p[0])
    rogue = GkaSession(RingConfig(scope, rogue_ring, 1), outsider)
    env = rogue.start(0.0)[0]
    assert hand_in(sessions[0], env, 0.0) == []
    assert sessions[0].stats["unknown_sender"] == 1


def test_wrong_instance_dropped(make_members):
    scope, members = make_members([1, 2])
    sessions = keyagree_sessions(scope, members)
    sessions[0].start(0.0)
    ordered = sorted(members, key=lambda m: m.uid)
    ring = [(m.uid, m.cert) for m in ordered]
    future = GkaSession(RingConfig(scope, ring, 7), ordered[1])
    env = future.start(0.0)[0]
    assert hand_in(sessions[0], env, 0.0) == []
    assert sessions[0].stats["wrong_instance"] == 1


def test_equivocation_keeps_first_element(make_members):
    scope, members = make_members([1, 2, 3])
    sessions = keyagree_sessions(scope, members)
    sessions[0].start(0.0)
    honest = valid_round1(sessions, 1)
    hand_in(sessions[0], honest, 0.0)
    # same uid signs a different element for the same instance
    twin = GkaSession(sessions[1].config, sessions[1].identity,
                      rng=random.Random(999))
    conflicting = twin.start(0.0)[0]
    hand_in(sessions[0], conflicting, 0.0)
    assert sessions[0].stats["conflicting_element"] == 1
    idx = sessions[0]._index_of[sessions[1].identity.uid]
    assert sessions[0]._z[idx] == sessions[1]._my_z
    assert sessions[0]._z[idx] != twin._my_z


def test_no_seed_without_all_signatures(make_members):
    # one participant never speaks: nobody may finish
    scope, members = make_members([1, 2, 3])
    sessions = keyagree_sessions(scope, members)
    queue = []
    for s in sessions[:2]:
        queue.extend(s.start(0.0))
    while queue:
        env = queue.pop(0)
        for s in sessions[:2]:
            queue.extend(hand_in(s, env, 0.0))
    assert all(s.seed is None for s in sessions)


def test_timeout_fails_round(make_members):
    scope, members = make_members([1, 2])
    sessions = keyagree_sessions(scope, members)
    sessions[0].start(0.0)
    assert sessions[0].on_timer(1.0) != [] or True   # rebroadcast may fire
    assert sessions[0].phase is GkaPhase.R1_SENT
    sessions[0].on_timer(2.5)
    assert sessions[0].phase is GkaPhase.FAILED
    assert "timed out" in sessions[0].failure_reason


def test_session_reads_round1_only_from_its_neighbours(make_members):
    # the key uses the round 1 of the two ring neighbours and every
    # round 2, so the session keeps no other round 1 and its timeout
    # reason counts only the round 1 it reads
    scope, members = make_members(range(1, 6))
    sessions = keyagree_sessions(scope, members)
    envs = {s.identity.uid: s.start(0.0)[0] for s in sessions}
    mine = sessions[0]
    assert mine.round1_uids == {5, 1, 2}
    for uid in (3, 4, 2):
        assert hand_in(mine, envs[uid], 0.1) == []
    assert set(mine._z) == {0, 1}
    mine.on_timer(2.5)
    assert mine.failure_reason == ("timed out in phase r1-sent "
                                   "(2/3 round-1, 0/5 round-2)")


def test_rebroadcast_same_bytes(make_members):
    scope, members = make_members([1, 2])
    sessions = keyagree_sessions(scope, members)
    first = sessions[0].start(0.0)[0]
    again = sessions[0].on_timer(0.3)
    assert again == [first]
    assert encode_management(again[0]) == encode_management(first)
    # nothing due yet right after
    assert sessions[0].on_timer(0.31) == []
    assert sessions[0].next_wakeup() == pytest.approx(0.55)


def test_inconsistent_ring_fails_consistency_check(make_members):
    scope, members = make_members([1, 2, 3])
    sessions = keyagree_sessions(scope, members)
    queue = []
    for s in sessions:
        queue.extend(s.start(0.0))
    # node 2 swaps its secret after round 1: its round-2 value can no longer
    # telescope with the broadcast round-1 elements
    sessions[1]._x = (sessions[1]._x % (P256_ORDER - 2)) + 1
    while queue:
        env = queue.pop(0)
        for s in sessions:
            queue.extend(hand_in(s, env, 0.0))
    assert sessions[0].phase is GkaPhase.FAILED
    assert "ring does not close" in sessions[0].failure_reason
    assert sessions[2].phase is GkaPhase.FAILED
    assert all(s.seed is None for s in sessions)
