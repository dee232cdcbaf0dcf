"""Wire formats: secured data packets, fragments, and management envelopes.

Three magics distinguish the packet families on one multicast group; a fourth
encodes the plaintext baseline used for benchmark comparisons. All integers
are big-endian fixed width, all variable fields carry 32-bit length prefixes,
and decoders reject anything whose re-encoding differs from the input.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .errors import (BadMagic, BadName, InconsistentFragment, NonCanonical,
                     OversizeMessage, Truncated)

MAGIC_SECURE = 0x4C433353
MAGIC_FRAGMENT = 0x4C433346
MAGIC_MANAGEMENT = 0x4C43334D
MAGIC_PLAIN = 0x4C433032

#: channel name bound, terminator included
MAX_CHANNELNAME = 256
#: largest sealed body (ciphertext and tag) a receiver reassembles; senders
#: refuse anything bigger. A chosen policy, not a figure from the paper:
#: the 32-bit length field allows 4 GiB, and at a 1400 B MTU the 16-bit
#: fragment count alone would carry about 86 MiB (65,535 fragments of
#: 1,378 B). 16 MiB holds a raw 1080p RGB camera frame (6.2 MB) with room to
#: spare; a larger payload has to be split by the application.
MAX_MESSAGE_BODY = 1 << 24
#: reassembly slots alive at once, across all senders
REASSEMBLY_MAX_SLOTS = 1024

_SECURE_HDR = struct.Struct(">IIH")
_FRAG_HDR = struct.Struct(">IIHIIHH")
SECURE_HEADER_LEN = _SECURE_HDR.size          # 10
FRAGMENT_HEADER_LEN = _FRAG_HDR.size          # 22
#: smallest legal secure tail: one encrypted NUL plus the 16-byte tag
MIN_SECURE_TAIL = 17
#: bytes reassembly charges per stored fragment besides its section: what
#: CPython keeps for it (the parts-dict entry, the (offset, section) tuple,
#: two ints and the section's object header), about 186 B by tracemalloc
#: on CPython 3.11 with 2 B sections
FRAGMENT_OVERHEAD = 192
#: bytes held by reassembly across all senders, each fragment charged its
#: section plus ``FRAGMENT_OVERHEAD``: room for four largest messages in
#: flight at once, each in the most fragments the 16-bit count allows
#: (about 112 MiB)
REASSEMBLY_MAX_BYTES = 4 * (MAX_MESSAGE_BODY + MAX_CHANNELNAME
                            + 0xFFFF * FRAGMENT_OVERHEAD)


class MsgKind(IntEnum):
    JOIN = 1
    JOIN_RESPONSE = 2
    GKA_ROUND1 = 3
    GKA_ROUND2 = 4


class FragmentPacket(NamedTuple):
    """One slice of an oversized secured message.

    ``section`` is enc_channelname followed by the first chunk for fragment
    number 0 and the bare chunk for every other fragment.
    """

    seqno: int
    sender_id: int
    full_body_length: int
    fragment_offset: int
    fragment_no: int
    fragments_total: int
    section: bytes


@dataclass(frozen=True)
class ManagementEnvelope:
    kind: MsgKind
    group: str
    channel: str
    payload: bytes
    signer_ref: bytes          # SHA-256 of the signer's certificate DER
    signature: bytes


def peek_magic(data: bytes) -> int:
    if len(data) < 4:
        raise Truncated("no room for a magic")
    return struct.unpack_from(">I", data)[0]


# ------------------------------------------------------------- secure packets


def pack_secure(seqno: int, sender_id: int, *tail: bytes) -> bytes:
    """Header plus the tail, which may come in parts (the encrypted name,
    then the body) so the datagram is copied together once.

    The tail is enc_channelname followed by the AEAD body; only a key
    holder can find the boundary, so the codec never splits it.
    """
    return b"".join((_SECURE_HDR.pack(MAGIC_SECURE, seqno, sender_id),
                     *tail))


def try_unpack_secure(data: bytes) -> tuple[int, int] | None:
    """Dispatch for the hot receive path: (seqno, sender_id) when ``data``
    is a well-formed secure packet, whose tail starts at
    ``SECURE_HEADER_LEN``, else None."""
    if len(data) >= SECURE_HEADER_LEN + MIN_SECURE_TAIL:
        magic, seqno, sender = _SECURE_HDR.unpack_from(data)
        if magic == MAGIC_SECURE:
            return seqno, sender
    return None


# ---------------------------------------------------------- plaintext baseline


def encode_plain_lcm(name: str, seqno: int, payload: bytes) -> bytes:
    if not name.isascii() or "\x00" in name:
        raise BadName(repr(name))
    return (struct.pack(">II", MAGIC_PLAIN, seqno)
            + name.encode("ascii") + b"\x00" + payload)


def decode_plain_lcm(data: bytes) -> tuple[str, int, bytes]:
    if len(data) < 8:
        raise Truncated("plain header needs 8 bytes")
    magic, seqno = struct.unpack_from(">II", data)
    if magic != MAGIC_PLAIN:
        raise BadMagic(hex(magic))
    end = data.find(b"\x00", 8)
    if end < 0:
        raise BadName("unterminated channel name")
    name = data[8:end]
    if not name.isascii():
        raise BadName("non-ASCII channel name")
    return name.decode("ascii"), seqno, data[end + 1:]


# ---------------------------------------------------------------- fragments


def encode_fragment(f: FragmentPacket) -> bytes:
    return _FRAG_HDR.pack(MAGIC_FRAGMENT, f.seqno, f.sender_id,
                          f.full_body_length, f.fragment_offset,
                          f.fragment_no, f.fragments_total) + f.section


def decode_fragment(data: bytes) -> FragmentPacket:
    if len(data) < FRAGMENT_HEADER_LEN:
        raise Truncated(f"{len(data)} bytes, fragment header needs "
                        f"{FRAGMENT_HEADER_LEN}")
    magic, seqno, sender, full_len, offset, no, total = \
        _FRAG_HDR.unpack_from(data)
    if magic != MAGIC_FRAGMENT:
        raise BadMagic(hex(magic))
    if total == 0 or no >= total:
        raise InconsistentFragment(f"fragment {no} of {total}")
    # positional: keyword construction costs twice as much per datagram
    return FragmentPacket(seqno, sender, full_len, offset, no, total,
                          data[FRAGMENT_HEADER_LEN:])


def check_sendable(name_len: int, body_len: int, mtu: int):
    """Raise OversizeMessage unless a sealed message with a ``name_len``
    byte encrypted channel name and a ``body_len`` byte body can go out in
    fragments at ``mtu`` and be reassembled by every receiver.

    Needs only lengths, so a sender can check before it spends a sequence
    number or seals anything.
    """
    if body_len > MAX_MESSAGE_BODY:
        raise OversizeMessage(f"body of {body_len} bytes; receivers "
                              f"reassemble at most {MAX_MESSAGE_BODY}")
    cap = mtu - FRAGMENT_HEADER_LEN
    first_cap = cap - name_len
    if first_cap < 1:
        raise OversizeMessage("mtu leaves no room after the channel name")
    total = 1 + -(-max(0, body_len - first_cap) // cap)
    if total > 0xFFFF:
        raise OversizeMessage(f"{total} fragments exceed the 16-bit count")


def fragment(enc_channelname: bytes, body: bytes, seqno: int, sender_id: int,
             mtu: int) -> list[FragmentPacket]:
    """Cut one sealed message into fragments with maximal chunks.

    Encryption already happened; this only slices bytes. A message that
    fits one datagram goes out as a secure packet (:func:`pack_secure`)
    instead, but any message given is cut. What ``check_sendable`` refuses
    is refused here too.
    """
    check_sendable(len(enc_channelname), len(body), mtu)
    cap = mtu - FRAGMENT_HEADER_LEN
    first_cap = cap - len(enc_channelname)
    n = len(body)
    total = 1 + -(-max(0, n - first_cap) // cap)
    out = [FragmentPacket(
        seqno, sender_id, n, 0, 0, total,
        enc_channelname + body[:first_cap])]
    for no, start in enumerate(range(first_cap, n, cap), 1):
        out.append(FragmentPacket(seqno, sender_id, n, start, no, total,
                                  body[start:start + cap]))
    return out


class _Slot:
    """One message being reassembled."""

    __slots__ = ("first_seen", "full_len", "total", "parts", "section_bytes")

    def __init__(self, first_seen: float, full_len: int, total: int):
        self.first_seen = first_seen
        self.full_len = full_len
        self.total = total
        # fragment number -> (offset, section)
        self.parts: dict[int, tuple[int, bytes]] = {}
        self.section_bytes = 0

    @property
    def stored(self) -> int:
        """What the slot is charged against ``REASSEMBLY_MAX_BYTES``."""
        return self.section_bytes + FRAGMENT_OVERHEAD * len(self.parts)


class ReassemblyBuffer:
    """Order-independent fragment collector with bounded memory and O(1)
    amortised work per fragment.

    Completion yields (enc_channelname, body). Fragments are unauthenticated
    until the body opens, so every limit here holds whatever sender ids and
    message ids arrive:

    - Slots are kept in first-seen order, so expiry pops from the front
      until it meets a slot younger than ``timeout`` seconds.
    - Each sender holds at most ``per_sender`` messages in flight; a new one
      drops that sender's oldest.
    - Across all senders at most ``REASSEMBLY_MAX_SLOTS`` slots live and at
      most ``REASSEMBLY_MAX_BYTES`` are held, each fragment charged its
      section plus ``FRAGMENT_OVERHEAD``; either cap drops the oldest slots
      first.
    - A first fragment declaring a body above ``MAX_MESSAGE_BODY``, or
      carrying more than the declared length plus ``MAX_CHANNELNAME``, is
      refused before anything is stored or evicted; a later fragment that
      would take its slot's sections past that length drops the slot.

    Expiry assumes ``now`` does not step backwards; if it does, slots only
    expire later than they should, and the caps still bound memory.
    """

    def __init__(self, timeout: float = 5.0, per_sender: int = 16):
        self.timeout = timeout
        self.per_sender = per_sender
        self._slots: OrderedDict[tuple[int, int], _Slot] = OrderedDict()
        # sender -> its slot keys in first-seen order
        self._by_sender: dict[int, dict[tuple[int, int], None]] = {}
        self._stored = 0

    @property
    def stored_bytes(self) -> int:
        """Bytes charged against ``REASSEMBLY_MAX_BYTES`` right now."""
        return self._stored

    def _drop(self, key: tuple[int, int]) -> _Slot:
        slot = self._slots.pop(key)
        mine = self._by_sender[key[0]]
        del mine[key]
        if not mine:
            del self._by_sender[key[0]]
        self._stored -= slot.stored
        return slot

    def _open(self, key: tuple[int, int], f: FragmentPacket,
              now: float) -> _Slot:
        """New slot for ``f``'s message, after whatever eviction it needs;
        a fragment no slot could hold is refused first."""
        if f.full_body_length > MAX_MESSAGE_BODY:
            raise OversizeMessage(
                f"declared body of {f.full_body_length} bytes")
        if len(f.section) > f.full_body_length + MAX_CHANNELNAME:
            raise InconsistentFragment("section exceeds declared length")
        slots = self._slots
        while slots:
            oldest, slot = next(iter(slots.items()))
            if now - slot.first_seen <= self.timeout:
                break
            self._drop(oldest)
        mine = self._by_sender.get(key[0])
        while mine and len(mine) >= self.per_sender:
            self._drop(next(iter(mine)))
        while len(slots) >= REASSEMBLY_MAX_SLOTS:
            self._drop(next(iter(slots)))
        # looked up again: the drops above delete a sender's index once
        # its last slot goes
        self._by_sender.setdefault(key[0], {})[key] = None
        slot = slots[key] = _Slot(now, f.full_body_length, f.fragments_total)
        return slot

    def _make_room(self, key: tuple[int, int], charge: int):
        """Drop the oldest slots other than ``key`` until ``charge`` fits."""
        while self._stored + charge > REASSEMBLY_MAX_BYTES:
            victims = iter(self._slots)
            victim = next(victims)
            if victim == key:
                victim = next(victims)
            self._drop(victim)

    def add(self, f: FragmentPacket, now: float
            ) -> tuple[bytes, bytes] | None:
        seqno, sender_id, full_len, offset, no, total, section = f
        key = (sender_id, seqno)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._open(key, f, now)
        if full_len != slot.full_len or total != slot.total:
            self._drop(key)
            raise InconsistentFragment(
                "conflicting totals for one message id")
        parts = slot.parts
        prior = parts.get(no)
        if prior is not None:
            if prior != (offset, section):
                self._drop(key)
                raise InconsistentFragment("conflicting duplicate fragment")
            return None
        section_bytes = slot.section_bytes + len(section)
        if section_bytes > full_len + MAX_CHANNELNAME:
            self._drop(key)
            raise InconsistentFragment("sections exceed declared length")
        charge = FRAGMENT_OVERHEAD + len(section)
        if self._stored + charge > REASSEMBLY_MAX_BYTES:
            self._make_room(key, charge)
        parts[no] = (offset, section)
        slot.section_bytes = section_bytes
        self._stored += charge
        if len(parts) < total:
            return None
        return self._assemble(self._drop(key))

    @staticmethod
    def _assemble(slot: _Slot) -> tuple[bytes, bytes]:
        full_len, total, parts = slot.full_len, slot.total, slot.parts
        # chunks 1..n-1 arrive bare, so fragment 0's chunk length (and with
        # it the channel-name boundary) follows from the length budget
        rest = sum(len(parts[no][1]) for no in range(1, total))
        first_offset, first_section = parts[0]
        chunk0_len = full_len - rest
        if first_offset != 0 or not 0 <= chunk0_len <= len(first_section):
            raise InconsistentFragment("fragment lengths disagree")
        name_len = len(first_section) - chunk0_len
        enc_name = first_section[:name_len]
        chunks = [first_section[name_len:]]
        expected_offset = chunk0_len
        for no in range(1, total):
            offset, section = parts[no]
            if offset != expected_offset:
                raise InconsistentFragment("offsets not gap-free")
            chunks.append(section)
            expected_offset += len(section)
        if expected_offset != full_len:
            raise InconsistentFragment("reassembled length mismatch")
        return enc_name, b"".join(chunks)

    def __len__(self):
        return len(self._slots)


# ------------------------------------------------------ management envelopes


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise Truncated(f"wanted {n} bytes at offset {self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self):
        if self.pos != len(self.data):
            raise NonCanonical(f"{len(self.data) - self.pos} trailing bytes")


def _blob(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def signed_region(kind: MsgKind, group: str, channel: str,
                  payload: bytes) -> bytes:
    """Exactly the bytes a management signature covers."""
    return (struct.pack(">B", kind)
            + _blob(group.encode("ascii"))
            + _blob(channel.encode("ascii"))
            + _blob(payload))


def encode_management(env: ManagementEnvelope) -> bytes:
    if len(env.signer_ref) != 32:
        raise NonCanonical("signer reference must be 32 bytes")
    return (struct.pack(">I", MAGIC_MANAGEMENT)
            + signed_region(env.kind, env.group, env.channel, env.payload)
            + env.signer_ref + _blob(env.signature))


def decode_management(data: bytes) -> ManagementEnvelope:
    r = _Reader(data)
    if r.u32() != MAGIC_MANAGEMENT:
        raise BadMagic("not a management envelope")
    kind_raw = r.u8()
    try:
        kind = MsgKind(kind_raw)
    except ValueError:
        raise NonCanonical(f"unknown message kind {kind_raw}")
    group_raw = r.blob()
    channel_raw = r.blob()
    if not group_raw.isascii() or not channel_raw.isascii():
        raise NonCanonical("non-ASCII scope")
    payload = r.blob()
    signer_ref = r.take(32)
    signature = r.blob()
    r.done()
    env = ManagementEnvelope(kind=kind, group=group_raw.decode("ascii"),
                             channel=channel_raw.decode("ascii"),
                             payload=payload, signer_ref=signer_ref,
                             signature=signature)
    if encode_management(env) != data:
        raise NonCanonical("re-encoding differs")
    return env


# ------------------------------------------------- management payload layouts


def encode_join_payload(t_ms: int, cert_der: bytes) -> bytes:
    return struct.pack(">Q", t_ms) + _blob(cert_der)


def parse_join_payload(payload: bytes) -> tuple[int, bytes]:
    r = _Reader(payload)
    t_ms = r.u64()
    cert = r.blob()
    r.done()
    return t_ms, cert


def _cert_set(certs: list[tuple[int, bytes]]) -> bytes:
    ordered = sorted(certs, key=lambda c: (c[0], c[1]))
    return struct.pack(">I", len(ordered)) + b"".join(
        _blob(der) for _, der in ordered)


def encode_join_response_payload(t_ms: int,
                                 participants: list[tuple[int, bytes]],
                                 joiners: list[tuple[int, bytes]],
                                 last_instance_id: int) -> bytes:
    """Cert sets are (uid, DER) pairs; encoding sorts them by uid."""
    return (struct.pack(">Q", t_ms) + _cert_set(participants)
            + _cert_set(joiners) + struct.pack(">Q", last_instance_id))


def parse_join_response_payload(payload: bytes
                                ) -> tuple[int, list[bytes], list[bytes], int]:
    r = _Reader(payload)
    t_ms = r.u64()
    out: list[list[bytes]] = []
    for _ in range(2):
        count = r.u32()
        if count > 0xFFFF:
            raise NonCanonical(f"absurd certificate count {count}")
        out.append([r.blob() for _ in range(count)])
    last_instance = r.u64()
    r.done()
    return t_ms, out[0], out[1], last_instance


def encode_gka_payload(uid: int, round_no: int, element: bytes,
                       instance_id: int) -> bytes:
    return (struct.pack(">HB", uid, round_no) + _blob(element)
            + struct.pack(">Q", instance_id))


def parse_gka_payload(payload: bytes) -> tuple[int, int, bytes, int]:
    r = _Reader(payload)
    uid = r.u16()
    round_no = r.u8()
    if round_no not in (1, 2):
        raise NonCanonical(f"round {round_no} is not 1 or 2")
    element = r.blob()
    instance_id = r.u64()
    r.done()
    return uid, round_no, element, instance_id
