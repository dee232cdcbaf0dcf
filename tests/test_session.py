"""Data-path tests: replay window against a remember-everything oracle,
key store slots, and the publish/receive pipeline end to end."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsec.crypto import TAG_LEN, kdf_expand, key_context
from lcmsec.errors import BadName, CounterExhausted, NoKey, OversizeMessage
from lcmsec import session as session_module
from lcmsec.session import KeyStore, ReplayWindow, SendCounter, Session
from lcmsec.wire import encode_plain_lcm, peek_magic, try_unpack_secure, \
    MAGIC_SECURE, MAX_CHANNELNAME, MAX_MESSAGE_BODY, FragmentPacket, \
    encode_fragment

GROUP = "239.255.76.67:7667"
SEED_A = b"\x11" * 33
SEED_CH = b"\x22" * 33


def material(seed, channel, epoch=1):
    return kdf_expand(seed, key_context(GROUP, channel, epoch))


def make_session(subscriptions=("chatter",), sender_id=1, epoch=1,
                 channels=("chatter",), now=0.0, **kw):
    s = Session(GROUP, subscriptions, **kw)
    s.install_group(material(SEED_A, "", epoch), sender_id, now)
    for ch in channels:
        s.install_channel(ch, material(SEED_CH, ch, epoch), now)
    return s


# ------------------------------------------------------------ replay window


def bounded_shuffle(n, depth, rng):
    """Arrival order of 0..n-1 where nothing overtakes by more than depth."""
    keyed = [(i + rng.uniform(0, depth), i) for i in range(n)]
    keyed.sort()
    return [i for _, i in keyed]


def test_window_rejects_duplicate():
    w = ReplayWindow(32)
    assert [w.check(s) for s in (1, 2, 3)] == [True] * 3
    assert not w.check(2)


def test_window_accepts_bounded_reorder():
    w = ReplayWindow(32)
    assert [w.check(s) for s in (5, 3, 4)] == [True] * 3
    assert [w.check(s) for s in (5, 3, 4)] == [False] * 3


def test_window_rejects_stale():
    w = ReplayWindow(64)
    assert w.check(1000)
    assert not w.check(1000 - 64 - 1)      # far behind the window
    assert not w.check(1000 - 64)          # first untrackable offset
    assert w.check(1000 - 63)              # oldest trackable slot


def test_window_survives_large_jump():
    w = ReplayWindow(32)
    assert w.check(1)
    assert w.check(10 ** 9)
    assert not w.check(10 ** 9)
    assert not w.check(1)


def test_window_size_validation():
    with pytest.raises(ValueError):
        ReplayWindow(0)
    with pytest.raises(ValueError):
        ReplayWindow(33)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_window_matches_naive_oracle(seed):
    rng = random.Random(seed)
    W = 256
    order = bounded_shuffle(5000, W, rng)
    # adversarial duplicates: re-deliver random already-seen seqnos
    trace = []
    for s in order:
        trace.append(s)
        if len(trace) > 1 and rng.random() < 0.2:
            trace.append(rng.choice(trace[:-1]))
    window = ReplayWindow(W)
    seen = set()
    accepts = {}
    for s in trace:
        got = window.check(s)
        want = s not in seen
        seen.add(s)
        assert got == want, f"disagree on seqno {s}"
        accepts[s] = accepts.get(s, 0) + (1 if got else 0)
    assert all(v <= 1 for v in accepts.values())


@given(st.integers(0, 2 ** 31), st.lists(st.integers(-300, 300),
                                         min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_window_never_double_accepts(start, offsets):
    w = ReplayWindow(256)
    seen = set()
    for off in offsets:
        s = max(0, start + off)
        if w.check(s):
            assert s not in seen
            seen.add(s)


# ----------------------------------------------------------------- keystore


def live_keys(ks, channel, now):
    return [slot.material for slot in ks.slots(channel, now)]


def test_keystore_newest_first_and_grace():
    assert session_module.GRACE == 10.0
    ks = KeyStore()
    m1 = material(SEED_CH, "c", epoch=1)
    m2 = material(SEED_CH, "c", epoch=2)
    ks.install("c", m1, now=0.0)
    assert live_keys(ks, "c", 5.0) == [m1]
    ks.install("c", m2, now=100.0)
    assert live_keys(ks, "c", 101.0) == [m2, m1]
    assert live_keys(ks, "c", 109.9) == [m2, m1]
    assert live_keys(ks, "c", 110.1) == [m2]   # grace expired


def test_keystore_keeps_two_epochs_max():
    ks = KeyStore()
    mats = [material(SEED_CH, "c", epoch=e) for e in (1, 2, 3)]
    for m in mats:
        ks.install("c", m, now=0.0)
    assert live_keys(ks, "c", 0.1) == [mats[2], mats[1]]


def test_keystore_same_key_reinstall_keeps_slot_and_windows():
    tx = make_session()
    rx = make_session(sender_id=2)
    (dg,) = tx.publish("chatter", b"once")
    assert rx.receive(dg, now=1.0) == ("chatter", b"once")
    (slot,) = rx.keys.slots("chatter", 1.0)
    # an identical reinstall is a no-op: the slot, its expiry and its
    # windows stay, so the replay it already saw stays refused
    rx.install_channel("chatter", material(SEED_CH, "chatter"), now=2.0)
    assert rx.keys.slots("chatter", 20.0) == [slot]
    assert slot.expires is None and list(slot.windows) == [1]
    assert rx.receive(dg, now=20.0) is None
    assert rx.stats.drops == {"replayed": 1}


# ------------------------------------------------------------- send counter


def test_counter_monotone_and_exhaustion():
    c = SendCounter()
    assert [c.next() for _ in range(3)] == [0, 1, 2]
    c.force(0xFFFFFFFF - 1)
    assert c.next() == 0xFFFFFFFF - 1
    with pytest.raises(CounterExhausted):
        c.next()
    c.reset()
    assert c.next() == 0


# ----------------------------------------------------------- publish/receive


def test_round_trip():
    tx = make_session(sender_id=1)
    rx = make_session(sender_id=2)
    for payload in (b"", b"x", b"hello world", bytes(range(256)) * 40):
        out = tx.publish("chatter", payload)
        results = [rx.receive(d) for d in out]
        delivered = [r for r in results if r is not None]
        assert delivered == [("chatter", payload)]


def test_overhead_is_exactly_18_bytes():
    tx = make_session()
    for name, payload in (("chatter", b"hi"), ("x", b""), ("long-name-ch",
                                                           b"q" * 500)):
        tx.subscriptions.add(name)
        tx.install_channel(name, material(SEED_CH, name, 1), 0.0)
        (datagram,) = tx.publish(name, payload)
        seqno, _ = try_unpack_secure(datagram)
        plain = encode_plain_lcm(name, seqno, payload)
        assert len(datagram) - len(plain) == 18


def test_channels_share_one_counter():
    tx = make_session(channels=("a", "b"), subscriptions=("a", "b"))
    seqnos = []
    for i in range(10):
        (d,) = tx.publish("a" if i % 2 else "b", b"p")
        seqnos.append(try_unpack_secure(d)[0])
    assert seqnos == sorted(set(seqnos))    # strictly increasing, no reuse


def test_unsubscribed_channel_silently_dropped():
    tx = make_session(channels=("chatter", "other"),
                      subscriptions=("chatter", "other"))
    rx = make_session(subscriptions=("chatter",), channels=("chatter",),
                      sender_id=2)
    (d,) = tx.publish("other", b"not for rx")
    assert rx.receive(d) is None
    assert rx.stats.drops == {"unsubscribed": 1}
    assert rx.stats.delivered == 0


def test_name_key_without_channel_key_reads_name_only():
    # holder of the group key but no channel key: classification shows the
    # name decrypted fine, yet the payload stays sealed
    tx = make_session()
    eavesdropper = Session(GROUP, {"chatter"})
    eavesdropper.install_group(material(SEED_A, "", 1), 7, 0.0)
    (d,) = tx.publish("chatter", b"secret")
    assert eavesdropper.receive(d) is None
    assert eavesdropper.stats.drops == {"no_channel_key": 1}
    # with a WRONG channel key the payload still refuses to open
    eavesdropper.install_channel("chatter", material(SEED_A, "chatter", 1),
                                 0.0)
    (d2,) = tx.publish("chatter", b"secret")
    assert eavesdropper.receive(d2) is None
    assert eavesdropper.stats.drops["auth_failure"] == 1


def test_byte_identical_replay_rejected():
    tx = make_session()
    rx = make_session(sender_id=2)
    (d,) = tx.publish("chatter", b"once")
    assert rx.receive(d) == ("chatter", b"once")
    assert rx.receive(d) is None
    assert rx.stats.drops == {"replayed": 1}


def test_bit_flips_never_corrupt():
    rng = random.Random(42)
    tx = make_session()
    rx = make_session(sender_id=2)
    for _ in range(400):
        payload = rng.randbytes(rng.randrange(0, 200))
        (d,) = tx.publish("chatter", payload)
        flipped = bytearray(d)
        bit = rng.randrange(len(d) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert rx.receive(bytes(flipped)) is None
        assert rx.receive(d) == ("chatter", payload)
    assert rx.stats.delivered == 400


def test_publish_follows_every_install():
    tx = make_session(sender_id=1, epoch=1)
    tx.publish("chatter", b"under epoch 1")
    # a new group epoch: new sender id, counter restart, new name key
    tx.install_group(material(SEED_A, "", 2), 7, 1.0)
    rx = Session(GROUP, ("chatter",))
    rx.install_group(material(SEED_A, "", 2), 8, 1.0)
    rx.install_channel("chatter", material(SEED_CH, "chatter", 1), 1.0)
    (d,) = tx.publish("chatter", b"group epoch 2", 1.0)
    assert try_unpack_secure(d) == (0, 7)
    assert rx.receive(d, 1.0) == ("chatter", b"group epoch 2")
    # a new channel key: the next publish seals under it alone
    tx.install_channel("chatter", material(SEED_CH, "chatter", 3), 2.0)
    only_new = Session(GROUP, ("chatter",))
    only_new.install_group(material(SEED_A, "", 2), 9, 2.0)
    only_new.install_channel("chatter", material(SEED_CH, "chatter", 3),
                             2.0)
    (d,) = tx.publish("chatter", b"channel epoch 3", 2.0)
    assert only_new.receive(d, 2.0) == ("chatter", b"channel epoch 3")


def test_unsubscribing_takes_effect_at_once():
    tx = make_session(sender_id=1)
    rx = make_session(sender_id=2)
    (d,) = tx.publish("chatter", b"first")
    assert rx.receive(d) == ("chatter", b"first")
    rx.subscriptions.discard("chatter")
    (d,) = tx.publish("chatter", b"second")
    assert rx.receive(d) is None
    assert rx.stats.drops == {"unsubscribed": 1}


def test_fragmented_round_trip():
    tx = make_session(mtu=700)
    rx = make_session(sender_id=2)
    payload = random.Random(7).randbytes(10_000)
    out = tx.publish("chatter", payload)
    assert len(out) > 1
    assert all(len(d) <= 700 for d in out)
    assert all(peek_magic(d) != MAGIC_SECURE for d in out)
    random.Random(8).shuffle(out)
    results = [rx.receive(d) for d in out]
    delivered = [r for r in results if r is not None]
    assert delivered == [("chatter", payload)]
    # replaying the whole fragment train yields nothing new
    results = [rx.receive(d) for d in out]
    assert results == [None] * len(out)
    assert rx.stats.drops["replayed"] == 1


def test_missing_fragment_no_delivery():
    tx = make_session(mtu=700)
    rx = make_session(sender_id=2)
    out = tx.publish("chatter", b"z" * 5000)
    assert all(rx.receive(d) is None for d in out[:-1])
    assert rx.stats.delivered == 0


def test_own_fragments_dropped_on_their_header(monkeypatch):
    tx = make_session(mtu=700)
    out = tx.publish("chatter", b"z" * 5000)
    parsed = []
    real = session_module.decode_fragment

    def counting(data):
        parsed.append(data)
        return real(data)

    monkeypatch.setattr(session_module, "decode_fragment", counting)
    # multicast loops the sender's own train back to it
    assert [tx.receive(d) for d in out] == [None] * len(out)
    assert parsed == []
    assert tx.stats.drops == {"own_echo": len(out)}
    # a peer's fragments are still parsed and delivered
    rx = make_session(sender_id=2)
    results = [rx.receive(d) for d in out]
    assert len(parsed) == len(out)
    assert results[-1] == ("chatter", b"z" * 5000)


IMPOSSIBLE_FRAGMENTS = {
    "oversize_body": [FragmentPacket(5, 1, MAX_MESSAGE_BODY + 1, 0, 0, 4000,
                                     b"n\x00" + b"a" * 1000)],
    "sections_overflow": [
        FragmentPacket(5, 1, 100, 0, 0, 3, b"a" * 300),
        FragmentPacket(5, 1, 100, 300, 1, 3, b"b" * (MAX_CHANNELNAME + 1))],
}


@pytest.mark.parametrize("case", sorted(IMPOSSIBLE_FRAGMENTS))
def test_impossible_fragments_dropped_as_bad_fragment(case):
    rx = make_session(sender_id=2)
    for f in IMPOSSIBLE_FRAGMENTS[case]:
        assert rx.receive(encode_fragment(f)) is None
    assert rx.stats.drops == {"bad_fragment": 1}


# the largest payload on "chatter" (8 B with its NUL) at each mtu: at 1400 B
# the body limit binds; at 64 B the 16-bit fragment count does, with 34 B in
# fragment 0 and 42 B in each of the other 65,534
@pytest.mark.parametrize("mtu, largest_len", [
    (1400, MAX_MESSAGE_BODY - TAG_LEN),
    (64, 34 + 0xFFFE * 42 - TAG_LEN),
])
def test_publish_refuses_what_peers_cannot_reassemble(mtu, largest_len):
    tx = make_session(mtu=mtu)
    rx = make_session(sender_id=2)
    with pytest.raises(OversizeMessage):
        tx.publish("chatter", bytes(largest_len + 1))
    assert tx.counter.value == 0
    assert tx.stats.published == 0
    # one byte less is the largest message, and it arrives
    largest = bytes(largest_len)
    out = tx.publish("chatter", largest)
    assert tx.counter.value == 1
    assert [r for r in (rx.receive(d) for d in out) if r is not None] == [
        ("chatter", largest)]


def test_epoch_fallback_and_grace():
    tx = make_session(epoch=1)
    rx = make_session(sender_id=2, epoch=1)
    straggler = tx.publish("chatter", b"old epoch")
    rx.install_group(material(SEED_A, "", 2), 2, now=100.0)
    rx.install_channel("chatter", material(SEED_CH, "chatter", 2), now=100.0)
    # within the grace period the previous epoch still opens
    assert rx.receive(straggler[0], now=105.0) == ("chatter", b"old epoch")
    # after it, the same bytes no longer decrypt under any held key
    late = tx.publish("chatter", b"too late")
    assert rx.receive(late[0], now=111.0) is None
    assert rx.stats.delivered == 1


def test_replay_under_previous_key_dropped_within_grace():
    tx = make_session(epoch=1)
    rx = make_session(sender_id=2, epoch=1)
    first, second = (tx.publish("chatter", body)[0]
                     for body in (b"seen", b"unseen"))
    assert rx.receive(first, now=1.0) == ("chatter", b"seen")
    # a group re-key re-derives the channel key in the same call; the
    # previous key keeps its windows while it serves out its grace
    rx.install_group(material(SEED_A, "", 2), 2, now=2.0,
                     channels={"chatter": material(SEED_CH, "chatter", 2)})
    assert rx.receive(first, now=3.0) is None
    assert rx.stats.drops == {"replayed": 1}
    assert rx.receive(second, now=3.0) == ("chatter", b"unseen")
    assert rx.receive(second, now=4.0) is None
    assert rx.stats.drops == {"replayed": 2}


def test_same_seqno_allowed_again_in_new_epoch():
    tx = make_session(epoch=1)
    rx = make_session(sender_id=2, epoch=1)
    (d1,) = tx.publish("chatter", b"seq0 epoch1")
    assert rx.receive(d1) == ("chatter", b"seq0 epoch1")
    # both sides re-key; the counter resets, seqno 0 happens again
    tx2 = make_session(epoch=2)
    rx.install_group(material(SEED_A, "", 2), 2, now=1.0)
    rx.install_channel("chatter", material(SEED_CH, "chatter", 2), now=1.0)
    (d2,) = tx2.publish("chatter", b"seq0 epoch2")
    assert try_unpack_secure(d2)[0] == try_unpack_secure(d1)[0] == 0
    assert rx.receive(d2, now=2.0) == ("chatter", b"seq0 epoch2")


def test_publish_errors():
    bare = Session(GROUP, ("chatter",))
    with pytest.raises(NoKey):
        bare.publish("chatter", b"x")
    s = make_session()
    with pytest.raises(NoKey):
        s.publish("unkeyed-channel", b"x")
    for bad in ("", "a\x00b", "éclair", "c" * 256):
        with pytest.raises(BadName):
            s.publish(bad, b"x")
    s.counter.force(0xFFFFFFFF)
    with pytest.raises(CounterExhausted):
        s.publish("chatter", b"x")
    s.install_group(material(SEED_A, "", 2), 1, now=0.0)   # re-key resets
    (d,) = s.publish("chatter", b"x")
    assert try_unpack_secure(d)[0] == 0


def test_receive_never_raises_on_junk():
    rx = make_session()
    for junk in (b"", b"\x00", b"\xff" * 3, b"LCM3", b"\x4c\x43\x33\x53",
                 b"\x4c\x43\x33\x53" + b"\x00" * 20,
                 b"\x4c\x43\x33\x46" + b"\x00" * 30,
                 random.Random(3).randbytes(100)):
        assert rx.receive(junk) is None
    assert rx.stats.delivered == 0
    assert rx.stats.dropped >= 7
