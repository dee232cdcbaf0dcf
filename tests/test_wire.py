"""Byte-exact wire format tests: golden encodings, round trips, fragments."""

from __future__ import annotations

import gc
import math
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmsec import wire
from lcmsec.errors import (BadMagic, BadName, InconsistentFragment,
                           LcmsecError, NonCanonical, OversizeMessage,
                           Truncated)
from lcmsec.wire import (FRAGMENT_HEADER_LEN, MAGIC_FRAGMENT, MAGIC_SECURE,
                         MAX_CHANNELNAME, MAX_MESSAGE_BODY,
                         REASSEMBLY_MAX_BYTES, REASSEMBLY_MAX_SLOTS,
                         SECURE_HEADER_LEN, FragmentPacket,
                         ManagementEnvelope, MsgKind, ReassemblyBuffer,
                         decode_fragment, decode_management,
                         decode_plain_lcm, encode_fragment,
                         encode_gka_payload, encode_join_payload,
                         encode_join_response_payload, encode_management,
                         encode_plain_lcm, fragment, pack_secure,
                         parse_gka_payload, parse_join_payload,
                         parse_join_response_payload, peek_magic,
                         signed_region, try_unpack_secure)

names = st.text(alphabet=st.sampled_from(
    "abcdefghijklmnopqrstuvwxyzABC_019"), min_size=1, max_size=30)
payloads = st.binary(max_size=2000)

# -------------------------------------------------------------- golden bytes


def test_secure_golden():
    tail = b"N\x00" + b"\xaa" * 16
    data = pack_secure(1, 2, tail)
    assert data.hex() == "4c43335300000001" + "0002" + tail.hex()
    assert try_unpack_secure(data) == (1, 2)
    assert data[SECURE_HEADER_LEN:] == tail
    # the tail may come in parts, the name and then the body
    assert pack_secure(1, 2, b"N\x00", b"\xaa" * 16) == data


def test_fragment_golden():
    f = FragmentPacket(seqno=0x0A0B0C0D, sender_id=0x0E0F,
                       full_body_length=0x00010002, fragment_offset=3,
                       fragment_no=4, fragments_total=5, section=b"hi")
    assert encode_fragment(f).hex() == (
        "4c433346" "0a0b0c0d" "0e0f" "00010002" "00000003" "0004" "0005"
        "6869")
    assert decode_fragment(encode_fragment(f)) == f


def test_management_golden():
    env = ManagementEnvelope(kind=MsgKind.JOIN, group="g", channel="",
                             payload=b"\x01\x02",
                             signer_ref=bytes(range(32)),
                             signature=b"\x30\x00")
    assert encode_management(env).hex() == (
        "4c43334d" "01" "00000001" "67" "00000000" "00000002" "0102"
        + bytes(range(32)).hex() + "00000002" "3000")


def test_plain_golden():
    data = encode_plain_lcm("c", 0, b"")
    assert data.hex() == "4c433032" "00000000" "63" "00"
    assert len(data) == 10
    assert decode_plain_lcm(data) == ("c", 0, b"")


def test_peek_magic():
    assert peek_magic(encode_plain_lcm("c", 0, b"")) == 0x4C433032
    assert peek_magic(pack_secure(0, 0, b"\x00" * 17)) == MAGIC_SECURE
    with pytest.raises(Truncated):
        peek_magic(b"\x01\x02")


# --------------------------------------------------------------- round trips


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1),
       st.binary(min_size=17, max_size=500))
@settings(max_examples=50, deadline=None)
def test_secure_round_trip(seqno, sender, tail):
    data = pack_secure(seqno, sender, tail)
    assert try_unpack_secure(data) == (seqno, sender)
    assert data[SECURE_HEADER_LEN:] == tail


@given(names, st.integers(0, 2**32 - 1), payloads)
@settings(max_examples=50, deadline=None)
def test_plain_round_trip(name, seqno, payload):
    data = encode_plain_lcm(name, seqno, payload)
    assert decode_plain_lcm(data) == (name, seqno, payload)


@given(names, payloads)
@settings(max_examples=100, deadline=None)
def test_overhead_is_exactly_18(name, payload):
    # a length-preserving name cipher adds 1 NUL, the body cipher adds a
    # 16-byte tag; headers differ by the 2-byte sender id
    enc_name = name.encode() + b"\x00"
    body = payload + b"\x00" * 16
    secure = pack_secure(7, 1, enc_name, body)
    plain = encode_plain_lcm(name, 7, payload)
    assert len(secure) - len(plain) == 18


def test_decode_errors():
    assert try_unpack_secure(b"\x4c\x43\x33\x53\x00") is None
    # header fine, tail below the 17-byte floor
    assert try_unpack_secure(pack_secure(0, 0, b"x" * 17)[:-1]) is None
    assert try_unpack_secure(encode_plain_lcm("c", 0, b"x" * 40)) is None
    with pytest.raises(BadMagic):
        decode_fragment(b"\x00" * 30)
    with pytest.raises(Truncated):
        decode_fragment(encode_fragment(FragmentPacket(
            0, 0, 1, 0, 0, 1, b""))[:10])
    with pytest.raises(InconsistentFragment):
        decode_fragment(encode_fragment(FragmentPacket(
            0, 0, 1, 0, 3, 2, b"x")))  # fragment_no >= total
    with pytest.raises(BadName):
        encode_plain_lcm("bad\x00name", 0, b"")
    with pytest.raises(BadName):
        decode_plain_lcm(b"\x4c\x43\x30\x32" + b"\x00" * 4 + b"noterm")


# ------------------------------------------------------------- fragmentation


def oracle_fragment_count(body_len: int, name_len: int, mtu: int) -> int:
    cap = mtu - FRAGMENT_HEADER_LEN
    first = cap - name_len
    return 1 + math.ceil((body_len - first) / cap)


def test_fragment_10kb_at_1400():
    enc_name = b"chatter\x00"
    body = bytes(range(256)) * 40  # 10240 bytes
    packets = fragment(enc_name, body, seqno=9, sender_id=3, mtu=1400)
    assert len(packets) == oracle_fragment_count(len(body), len(enc_name),
                                                 1400) == 8
    assert all(isinstance(p, FragmentPacket) for p in packets)
    # last fragment short, all others at capacity
    sizes = [len(p.section) for p in packets]
    assert sizes[-1] < 1400 - FRAGMENT_HEADER_LEN
    assert all(len(encode_fragment(p)) <= 1400 for p in packets)
    assert packets[0].section.startswith(enc_name)


def test_single_packet_when_it_fits():
    # such a message goes out as one secure packet; cut anyway, it is one
    # fragment holding the name and the whole body
    out = fragment(b"c\x00", b"x" * 100, seqno=1, sender_id=1, mtu=1400)
    assert out == [FragmentPacket(1, 1, 100, 0, 0, 1, b"c\x00" + b"x" * 100)]


def test_fragment_oversize_rejected():
    with pytest.raises(OversizeMessage):
        fragment(b"c\x00" * 700, b"x" * 100, 0, 0, mtu=1400)


@given(st.integers(1, 5000), st.integers(1, 40), st.integers(100, 1500),
       st.randoms())
@settings(max_examples=100, deadline=None)
def test_fragment_reassemble_round_trip(body_len, name_len, mtu, rng):
    enc_name = bytes((i * 7) % 251 for i in range(name_len))
    body = bytes((i * 13) % 256 for i in range(body_len))
    try:
        packets = fragment(enc_name, body, seqno=5, sender_id=2, mtu=mtu)
    except OversizeMessage:
        assert mtu - FRAGMENT_HEADER_LEN - name_len < 1
        return
    assert len(packets) == oracle_fragment_count(body_len, name_len, mtu)
    assert sum(len(p.section) for p in packets) == name_len + body_len
    buf = ReassemblyBuffer()
    shuffled = list(packets)
    rng.shuffle(shuffled)
    results = [buf.add(decode_fragment(encode_fragment(p)), now=0.0)
               for p in shuffled]
    done = [r for r in results if r is not None]
    assert results[:-1] == [None] * (len(packets) - 1)
    assert done == [(enc_name, body)]


def test_duplicate_fragment_idempotent():
    packets = fragment(b"n\x00", b"y" * 3000, 1, 1, mtu=1400)
    buf = ReassemblyBuffer()
    assert buf.add(packets[0], now=0.0) is None
    assert buf.add(packets[0], now=0.0) is None  # duplicate, no double count
    assert buf.add(packets[1], now=0.0) is None
    assert buf.add(packets[2], now=0.0) == (b"n\x00", b"y" * 3000)


def test_conflicting_duplicate_rejected():
    packets = fragment(b"n\x00", b"y" * 3000, 1, 1, mtu=1400)
    buf = ReassemblyBuffer()
    buf.add(packets[0], now=0.0)
    forged = FragmentPacket(seqno=1, sender_id=1, full_body_length=3000,
                            fragment_offset=0, fragment_no=0,
                            fragments_total=packets[0].fragments_total,
                            section=b"Z" * len(packets[0].section))
    with pytest.raises(InconsistentFragment):
        buf.add(forged, now=0.0)


def test_conflicting_totals_rejected():
    buf = ReassemblyBuffer()
    buf.add(FragmentPacket(1, 1, 100, 0, 0, 2, b"a" * 60), now=0.0)
    with pytest.raises(InconsistentFragment):
        buf.add(FragmentPacket(1, 1, 100, 60, 1, 3, b"b" * 40), now=0.0)


def test_gapped_offsets_rejected():
    buf = ReassemblyBuffer()
    buf.add(FragmentPacket(1, 1, 100, 0, 0, 2, b"n\x00" + b"a" * 60), now=0.0)
    with pytest.raises(InconsistentFragment):
        # claims offset 70 but fragment 0 contributed only 60 body bytes
        buf.add(FragmentPacket(1, 1, 100, 70, 1, 2, b"b" * 40), now=0.0)


def test_eviction_after_timeout():
    packets = fragment(b"n\x00", b"y" * 3000, 1, 1, mtu=1400)
    buf = ReassemblyBuffer(timeout=5.0)
    buf.add(packets[0], now=0.0)
    buf.add(packets[1], now=0.0)
    # a different message from the same sender lands after the deadline
    other = fragment(b"n\x00", b"z" * 3000, 2, 1, mtu=1400)
    buf.add(other[0], now=6.0)
    assert len(buf) == 1
    # the late final fragment opens a fresh slot instead of completing
    assert buf.add(packets[2], now=6.0) is None


def test_per_sender_cap():
    buf = ReassemblyBuffer(per_sender=4)
    for seq in range(10):
        frags = fragment(b"n\x00", bytes([seq]) * 3000, seq, 1, mtu=1400)
        buf.add(frags[0], now=float(seq) / 100)
    assert len(buf) == 4
    # an unrelated sender is not affected by sender 1's pressure
    frags = fragment(b"n\x00", b"q" * 3000, 0, 2, mtu=1400)
    buf.add(frags[0], now=0.2)
    assert len(buf) == 5


# 1378 B fills a 1400 B datagram, so the slot cap binds; two 60,000 B
# fragments per message make the byte cap bind first
@pytest.mark.parametrize("section_len, per_message",
                         [(1400 - FRAGMENT_HEADER_LEN, 1), (60_000, 2)])
def test_forged_first_fragment_flood_is_bounded(section_len, per_message):
    # every forged message is a new sender id and message id inside one
    # timeout, so neither expiry nor the per-sender cap ever applies
    section = random.Random(section_len).randbytes(section_len)
    forged = [FragmentPacket(seqno=n, sender_id=1 + n,
                             full_body_length=1 << 20,
                             fragment_offset=no * section_len,
                             fragment_no=no, fragments_total=48,
                             section=section)
              for n in range(50_000 // per_message)
              for no in range(per_message)]
    buf = ReassemblyBuffer()
    peak_slots = peak_bytes = 0
    t0 = time.perf_counter()
    for f in forged:
        buf.add(f, now=0.0)
        peak_slots = max(peak_slots, len(buf))
        peak_bytes = max(peak_bytes, buf.stored_bytes)
    assert time.perf_counter() - t0 < 1.0
    assert peak_slots <= REASSEMBLY_MAX_SLOTS
    assert peak_bytes <= REASSEMBLY_MAX_BYTES
    # the flood saturated the cap it was sized for
    if per_message == 1:
        assert peak_slots == REASSEMBLY_MAX_SLOTS
    else:
        assert peak_slots < REASSEMBLY_MAX_SLOTS
        assert peak_bytes > (REASSEMBLY_MAX_BYTES - section_len
                             - FRAGMENT_HEADER_LEN)
    legit = fragment(b"n\x00", b"y" * 3000, seqno=7, sender_id=60_000,
                     mtu=1400)
    assert len(legit) == 3
    assert [buf.add(p, now=0.0) for p in legit] == [
        None, None, (b"n\x00", b"y" * 3000)]


def test_sender_whose_last_slot_the_slot_cap_took_can_reopen():
    buf = ReassemblyBuffer()
    first = fragment(b"n\x00", b"a" * 3000, seqno=1, sender_id=1, mtu=1400)
    buf.add(first[0], now=0.0)
    for n in range(REASSEMBLY_MAX_SLOTS - 1):
        buf.add(FragmentPacket(n, 100 + n, 3000, 0, 0, 3, b"x"), now=0.0)
    # sender 1's only slot is the oldest, so its next message evicts it
    second = fragment(b"n\x00", b"b" * 3000, seqno=2, sender_id=1, mtu=1400)
    assert [buf.add(p, now=0.0) for p in second] == [
        None, None, (b"n\x00", b"b" * 3000)]
    assert len(buf) == REASSEMBLY_MAX_SLOTS - 1


class ScanningReassembly:
    """Reference for ReassemblyBuffer: the same limits, found by scanning
    every slot on each call, as the buffer did before it kept them in
    arrival order. Only valid for a clock that never steps back."""

    def __init__(self, timeout: float, per_sender: int):
        self.timeout = timeout
        self.per_sender = per_sender
        self.slots = []     # [key, first_seen, full_len, total, parts]

    def stored(self) -> int:
        return sum(wire.FRAGMENT_OVERHEAD + len(section)
                   for slot in self.slots for _, section in slot[4].values())

    def add(self, f: FragmentPacket, now: float):
        key = (f.sender_id, f.seqno)
        slot = next((s for s in self.slots if s[0] == key), None)
        if slot is None:
            if f.full_body_length > wire.MAX_MESSAGE_BODY:
                raise OversizeMessage("declared body")
            if len(f.section) > f.full_body_length + MAX_CHANNELNAME:
                raise InconsistentFragment("rejected")
            self.slots = [s for s in self.slots
                          if now - s[1] <= self.timeout]
            mine = [s for s in self.slots if s[0][0] == f.sender_id]
            while len(mine) >= self.per_sender:
                oldest = min(mine, key=lambda s: s[1])
                mine.remove(oldest)
                self.slots.remove(oldest)
            while len(self.slots) >= wire.REASSEMBLY_MAX_SLOTS:
                self.slots.pop(0)
            slot = [key, now, f.full_body_length, f.fragments_total, {}]
            self.slots.append(slot)
        parts = slot[4]
        prior = parts.get(f.fragment_no)
        if ((f.full_body_length, f.fragments_total) != (slot[2], slot[3])
                or prior not in (None, (f.fragment_offset, f.section))
                or (prior is None
                    and sum(len(sec) for _, sec in parts.values())
                    + len(f.section) > slot[2] + MAX_CHANNELNAME)):
            self.slots.remove(slot)
            raise InconsistentFragment("rejected")
        if prior is not None:
            return None
        while (self.stored() + wire.FRAGMENT_OVERHEAD + len(f.section)
               > wire.REASSEMBLY_MAX_BYTES):
            self.slots.remove(next(s for s in self.slots if s is not slot))
        parts[f.fragment_no] = (f.fragment_offset, f.section)
        if len(parts) < slot[3]:
            return None
        self.slots.remove(slot)
        complete = wire._Slot(slot[1], slot[2], slot[3])
        complete.parts = parts
        return ReassemblyBuffer._assemble(complete)


def _outcome(buf, f, now):
    try:
        return buf.add(f, now)
    except LcmsecError as exc:
        return type(exc)


_legit_or_forged = st.one_of(
    st.tuples(st.just("legit"), st.integers(0, 7)),
    # few distinct totals, so forged fragments often share a slot
    st.tuples(st.just("forged"), st.sampled_from([100, 250, 301]),
              st.sampled_from([1, 3]), st.integers(0, 400)))


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3),
                          _legit_or_forged,
                          st.sampled_from([0.0, 0.5, 2.5, 5.0])),
                max_size=80))
# the byte cap has to drop two slots: the small oldest one frees too little
@example([(1, 0, ("forged", 250, 3, 21), 0.0),
          (2, 0, ("forged", 250, 3, 200), 0.0),
          (2, 0, ("forged", 250, 3, 199), 0.0),
          (3, 0, ("forged", 250, 3, 190), 0.0),
          (1, 1, ("forged", 250, 3, 200), 0.0)])
@settings(max_examples=300, deadline=None)
def test_reassembly_matches_scanning_reference(ops):
    # caps small enough that a short run reaches each of them; the byte cap
    # still holds any one slot (at most 557 section bytes in 3 fragments,
    # each charged the overhead, patched to 22 B). Steps of 0.5 s add up
    # exactly, so arrivals land on the timeout too.
    with mock.patch.multiple(wire, REASSEMBLY_MAX_SLOTS=4,
                             REASSEMBLY_MAX_BYTES=700, MAX_MESSAGE_BODY=300,
                             FRAGMENT_OVERHEAD=22):
        buf = ReassemblyBuffer(timeout=5.0, per_sender=2)
        ref = ScanningReassembly(timeout=5.0, per_sender=2)
        now = 0.0
        for sender, seqno, packet, dt in ops:
            now += dt
            if packet[0] == "legit":
                body = bytes([seqno]) * (40 + 30 * sender + 40 * seqno)
                frags = fragment(b"n\x00", body, seqno, sender, mtu=60)
                f = frags[packet[1] % len(frags)]
            else:
                _, full_len, total, section_len = packet
                f = FragmentPacket(seqno, sender, full_len, 0,
                                   section_len % total, total,
                                   bytes(section_len))
            assert _outcome(buf, f, now) == _outcome(ref, f, now)
            assert len(buf) == len(ref.slots)
            assert buf.stored_bytes == ref.stored()


def test_byte_budget_holds_four_largest_messages():
    # the largest body, cut into the most fragments the 16-bit count
    # allows, fits four times over, so a legit slot never evicts itself
    largest = MAX_MESSAGE_BODY + MAX_CHANNELNAME + 0xFFFF * FRAGMENT_HEADER_LEN
    assert 4 * largest <= REASSEMBLY_MAX_BYTES


def test_four_publishers_complete_largest_messages_concurrently():
    # mtu 279 cuts the largest body into 65,282 fragments, near the 16-bit
    # limit, so the header charges are near their worst case too
    body = random.Random(4).randbytes(MAX_MESSAGE_BODY)
    frags = fragment(b"n\x00", body, seqno=1, sender_id=0, mtu=279)
    assert 65_000 < len(frags) <= 0xFFFF
    buf = ReassemblyBuffer()
    done = {}
    # round robin, so all four are in flight until their last fragments;
    # the publishers share chunks and differ in the encrypted name
    for f in frags:
        for sender in range(1, 5):
            section = (bytes([sender, 0]) + f.section[2:] if f.fragment_no == 0
                       else f.section)
            out = buf.add(f._replace(sender_id=sender, section=section),
                          now=0.0)
            if out is not None:
                done[sender] = out
    assert sorted(done) == [1, 2, 3, 4]
    assert all(done[s] == (bytes([s, 0]), body) for s in done)
    assert len(buf) == 0 and buf.stored_bytes == 0


def test_charged_bytes_cover_what_tiny_fragments_really_hold():
    # the cheapest fragments to send are the ones whose bookkeeping most
    # outweighs their sections; every object is built inside the traced
    # region, as decode_fragment builds it from a datagram
    n, per_message = 80_000, 40_000
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        buf = ReassemblyBuffer()
        for seqno in range(n // per_message):
            for no in range(per_message):
                buf.add(FragmentPacket(
                    seqno=seqno, sender_id=1,
                    full_body_length=2 * per_message + 2,
                    fragment_offset=2 * no, fragment_no=no,
                    fragments_total=per_message + 1,
                    section=no.to_bytes(2, "big")), now=0.0)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 1.5 * buf.stored_bytes
    assert buf.stored_bytes == n * (wire.FRAGMENT_OVERHEAD + 2)


REFUSED = {
    # a declared body no receiver reassembles
    "oversize_body": (OversizeMessage, [
        FragmentPacket(1, 1, MAX_MESSAGE_BODY + 1, 0, 0, 4000,
                       b"n\x00" + b"a" * 1000)]),
    # one section already longer than its declared length allows
    "first_section_overflows": (InconsistentFragment, [
        FragmentPacket(1, 1, 100, 0, 0, 2,
                       b"a" * (100 + MAX_CHANNELNAME + 1))]),
    # each section fits alone, together they do not
    "sections_overflow": (InconsistentFragment, [
        FragmentPacket(1, 1, 100, 0, 0, 3, b"a" * 300),
        FragmentPacket(1, 1, 100, 300, 1, 3, b"b" * 300)]),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_impossible_fragments_refused(case):
    error, (*accepted, last) = REFUSED[case]
    held = fragment(b"n\x00", b"h" * 3000, seqno=9, sender_id=9, mtu=1400)
    # the held slot and one slot per accepted fragment fill the slot cap,
    # so a refused fragment that opened a slot would evict the held one
    with mock.patch.object(wire, "REASSEMBLY_MAX_SLOTS", 1 + len(accepted)):
        buf = ReassemblyBuffer()
        assert buf.add(held[0], now=0.0) is None
        held_bytes = buf.stored_bytes
        for f in accepted:
            assert buf.add(f, now=0.0) is None
        with pytest.raises(error):
            buf.add(last, now=0.0)
        assert len(buf) == 1
        assert buf.stored_bytes == held_bytes
        assert [buf.add(p, now=0.0) for p in held[1:]] == [
            None, (b"n\x00", b"h" * 3000)]


# --------------------------------------------------------------- management


def make_env(kind=MsgKind.JOIN, payload=b"\x01\x02\x03"):
    return ManagementEnvelope(kind=kind, group="239.0.0.1:7667",
                              channel="chatter", payload=payload,
                              signer_ref=b"\x42" * 32, signature=b"\x30\x01a")


@pytest.mark.parametrize("kind", list(MsgKind))
def test_management_round_trip(kind):
    env = make_env(kind=kind)
    data = encode_management(env)
    assert decode_management(data) == env
    assert encode_management(decode_management(data)) == data


def test_management_rejects_trailing_garbage():
    data = encode_management(make_env()) + b"\x00"
    with pytest.raises(NonCanonical):
        decode_management(data)


def test_management_rejects_unknown_kind():
    data = bytearray(encode_management(make_env()))
    data[4] = 9
    with pytest.raises(NonCanonical):
        decode_management(bytes(data))
    with pytest.raises(BadMagic):
        decode_management(encode_plain_lcm("c", 0, b"x" * 60))
    with pytest.raises(Truncated):
        decode_management(encode_management(make_env())[:20])


def test_signed_region_covers_kind_scope_payload():
    env = make_env()
    region = signed_region(env.kind, env.group, env.channel, env.payload)
    assert region in encode_management(env)
    other = signed_region(MsgKind.JOIN_RESPONSE, env.group, env.channel,
                          env.payload)
    assert other != region


def test_join_payload_round_trip():
    payload = encode_join_payload(12345678, b"\x30\x82fakecert")
    assert parse_join_payload(payload) == (12345678, b"\x30\x82fakecert")
    with pytest.raises(NonCanonical):
        parse_join_payload(payload + b"\x00")
    with pytest.raises(Truncated):
        parse_join_payload(payload[:-1])


def test_join_response_sorts_cert_sets():
    p = [(2, b"certB"), (1, b"certA")]
    j = [(9, b"certJ")]
    a = encode_join_response_payload(777, p, j, last_instance_id=4)
    b = encode_join_response_payload(777, list(reversed(p)), j,
                                     last_instance_id=4)
    assert a == b
    t, p_out, j_out, last = parse_join_response_payload(a)
    assert (t, last) == (777, 4)
    assert p_out == [b"certA", b"certB"]
    assert j_out == [b"certJ"]


def test_join_response_empty_sets():
    data = encode_join_response_payload(1, [], [], 0)
    assert parse_join_response_payload(data) == (1, [], [], 0)


def test_gka_payload_round_trip():
    data = encode_gka_payload(uid=5, round_no=2, element=b"\x02" + b"q" * 32,
                              instance_id=11)
    assert parse_gka_payload(data) == (5, 2, b"\x02" + b"q" * 32, 11)
    with pytest.raises(NonCanonical):
        parse_gka_payload(encode_gka_payload(5, 3, b"\x00", 1))


@given(st.integers(0, 0xFFFF), st.sampled_from([1, 2]),
       st.binary(min_size=1, max_size=33), st.integers(0, 2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_gka_payload_property_round_trip(uid, rnd, element, inst):
    assert parse_gka_payload(
        encode_gka_payload(uid, rnd, element, inst)) == (uid, rnd, element,
                                                         inst)
