"""Per-node data path: encrypting publishes, decrypting receives.

Channel names travel encrypted under the group-wide key, payloads under the
per-channel key with the plaintext name as associated data, so one node can
filter traffic by topic while only channel members read bodies. Both IVs of a
message reuse one (sender id, sequence number) pair; distinct per-key salts
keep the streams apart.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from . import wire
from .crypto import (TAG_LEN, KeyMaterial, aead_seal, aead_open, build_iv,
                     ctr_crypt)
from .errors import (AuthFailure, BadName, CounterExhausted, LcmsecError,
                     NoKey, TooShort)
from .wire import (FRAGMENT_SENDER, MAGIC_FRAGMENT, MAGIC_PLAIN,
                   MAGIC_SECURE, MAGIC_MANAGEMENT, MAX_CHANNELNAME,
                   SECURE_HEADER_LEN, ReassemblyBuffer, decode_fragment,
                   encode_fragment, pack_secure, peek_magic,
                   try_unpack_secure)

DEFAULT_MTU = 1400
#: sequence numbers a replay window spans; one window per sender and key
WINDOW = 1024
#: seconds a replaced key still opens datagrams sealed before the re-key
GRACE = 10.0

_SEQNO_LIMIT = 0xFFFFFFFF


class SendCounter:
    """Group-wide monotone message counter; all channels draw from it."""

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def force(self, value: int):
        self._value = value

    def next(self) -> int:
        with self._lock:
            # the topmost value is kept as the exhaustion sentinel
            if self._value >= _SEQNO_LIMIT:
                raise CounterExhausted("sequence number space spent; re-key")
            out = self._value
            self._value += 1
            return out

    def reset(self):
        with self._lock:
            self._value = 0


class ReplayWindow:
    """Sliding-bitmap duplicate filter in the style of RFC 6479.

    Accepts each sequence number at most once; numbers that fell behind the
    window (offset >= size from the highest seen) are rejected as stale.
    """

    def __init__(self, size: int = WINDOW):
        if size <= 0 or size % 32:
            raise ValueError("window size must be a positive multiple of 32")
        self.size = size
        self._mask = (1 << size) - 1
        self._highest: int | None = None
        self._bits = 0                    # bit k == (highest - k) accepted

    def check(self, seqno: int) -> bool:
        """True iff seqno is fresh; a True result records it."""
        if self._highest is None:
            self._highest = seqno
            self._bits = 1
            return True
        if seqno > self._highest:
            shift = seqno - self._highest
            if shift >= self.size:
                self._bits = 1
            else:
                self._bits = ((self._bits << shift) | 1) & self._mask
            self._highest = seqno
            return True
        offset = self._highest - seqno
        if offset >= self.size:
            return False
        if (self._bits >> offset) & 1:
            return False
        self._bits |= 1 << offset
        return True


class KeySlot:
    """One installed key, the time it stops opening datagrams (None while
    it is its scope's newest) and the replay windows, by sender id, of the
    senders heard under it. The windows live and die with their key."""

    __slots__ = ("material", "expires", "windows")

    def __init__(self, material: KeyMaterial):
        self.material = material
        self.expires: float | None = None
        self.windows: dict[int, ReplayWindow] = {}


class KeyStore:
    """Key slots by scope, newest first; the group's scope is ``""``.

    A replaced key is kept for :data:`GRACE`, and a scope never holds more
    than two slots, so an expired second slot is dropped when its scope is
    looked up. That assumes ``now`` does not step back, as
    :class:`~lcmsec.wire.ReassemblyBuffer` does. Installing the key that is
    already newest changes nothing, so its windows stay and an identical
    reinstall cannot reopen replays.
    """

    def __init__(self):
        self._slots: dict[str, list[KeySlot]] = {}

    def install(self, scope: str, material: KeyMaterial, now: float):
        slots = self._slots.get(scope, [])
        if slots and slots[0].material == material:
            return
        kept = slots[:1]
        for slot in kept:
            slot.expires = now + GRACE
        self._slots[scope] = [KeySlot(material)] + kept

    def slots(self, scope: str, now: float) -> list[KeySlot]:
        slots = self._slots.get(scope, [])
        if len(slots) > 1 and now >= slots[1].expires:
            del slots[1:]
        return slots


@dataclass
class SessionStats:
    delivered: int = 0
    published: int = 0
    drops: dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str):
        self.drops[reason] = self.drops.get(reason, 0) + 1

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())


class Session:
    """Publish/receive pipeline for one multicast group.

    Key material and the sender id arrive from outside (the discovery layer)
    through the install methods; everything here is pure computation, so it
    never blocks and never talks to a socket.
    """

    def __init__(self, group: str, subscriptions=(), *,
                 mtu: int = DEFAULT_MTU):
        self.group = group
        self.subscriptions = set(subscriptions)
        self.mtu = mtu
        self.keys = KeyStore()
        self.counter = SendCounter()
        self.sender_id: int | None = None
        self.stats = SessionStats()
        self._reassembly = ReassemblyBuffer()
        #: channel -> :meth:`_send_context`, cleared by every install
        self._sending: dict[str, tuple] = {}
        #: decrypted name with its NUL -> channel, for names subscribed to
        self._channel_of: dict[bytes, str] = {}

    # ------------------------------------------------------------ key plumbing

    def install_group(self, material: KeyMaterial, sender_id: int,
                      now: float,
                      channels: dict[str, KeyMaterial] | None = None):
        """New group epoch: fresh name key, fresh sender id, counter reset.

        ``channels`` holds every keyed channel's material re-derived under
        the new group epoch. It lands in this same call, so no message is
        sealed under an old channel key once the counter restarts.
        """
        self.keys.install("", material, now)
        for channel, channel_material in (channels or {}).items():
            self.install_channel(channel, channel_material, now)
        self.sender_id = sender_id
        self.counter.reset()
        self._sending.clear()

    def install_channel(self, channel: str, material: KeyMaterial,
                        now: float):
        self.keys.install(channel, material, now)
        self._sending.pop(channel, None)

    # --------------------------------------------------------------- publish

    def _send_context(self, channel: str, now: float) -> tuple:
        """(name with NUL, group key, channel key, sender id, largest payload
        that fits one datagram): what every publish on ``channel`` needs
        until the next install. Raises what :meth:`publish` refuses with."""
        try:
            name = channel.encode("ascii")
        except UnicodeEncodeError:
            raise BadName(repr(channel))
        if not 0 < len(name) < MAX_CHANNELNAME or b"\x00" in name:
            raise BadName(repr(channel))
        name_nul = name + b"\x00"
        group_slots = self.keys.slots("", now)
        if not group_slots or self.sender_id is None:
            raise NoKey("group epoch not established")
        channel_slots = self.keys.slots(channel, now)
        if not channel_slots:
            raise NoKey(f"no key material for channel {channel!r}")
        # the newest key of a scope never expires, so this holds until an
        # install clears it
        ctx = self._sending[channel] = (
            name_nul, group_slots[0].material, channel_slots[0].material,
            self.sender_id,
            self.mtu - SECURE_HEADER_LEN - len(name_nul) - TAG_LEN)
        return ctx

    def publish(self, channel: str, payload: bytes,
                now: float = 0.0) -> list[bytes]:
        ctx = self._sending.get(channel)
        if ctx is None:
            ctx = self._send_context(channel, now)
        name_nul, k_g, k_ch, sender_id, single_max = ctx
        if len(payload) > single_max:
            # refused before a sequence number is spent on it; the
            # encrypted name is as long as the plain one
            wire.check_sendable(len(name_nul), len(payload) + TAG_LEN,
                                self.mtu)
        seqno = self.counter.next()
        enc_name = ctr_crypt(k_g, build_iv(k_g.salt, sender_id, seqno),
                             name_nul)
        body = aead_seal(k_ch, build_iv(k_ch.salt, sender_id, seqno),
                         payload, aad=name_nul)
        self.stats.published += 1
        if len(payload) <= single_max:
            # single-datagram case, overwhelmingly common
            return [pack_secure(seqno, sender_id, enc_name, body)]
        return [encode_fragment(p) for p in
                wire.fragment(enc_name, body, seqno, sender_id, self.mtu)]

    # --------------------------------------------------------------- receive

    def receive(self, datagram: bytes,
                now: float = 0.0) -> tuple[str, bytes] | None:
        """Decrypt one datagram; None means dropped (reason counted)."""
        fast = try_unpack_secure(datagram)
        if fast is not None:
            seqno, sender_id = fast
            if sender_id == self.sender_id:
                # our own multicast loops back to us; nothing to deliver
                self.stats.drop("own_echo")
                return None
            return self._open(seqno, sender_id, None, datagram, now,
                              SECURE_HEADER_LEN)
        try:
            magic = peek_magic(datagram)
        except LcmsecError:
            self.stats.drop("truncated")
            return None
        if magic == MAGIC_SECURE:
            # well-formed packets took the fast path; this is a runt
            self.stats.drop("truncated")
            return None
        if magic == MAGIC_FRAGMENT:
            # our own looped-back fragments go on the header's sender id,
            # before any parse or copy of the section
            if len(datagram) >= FRAGMENT_SENDER.stop and int.from_bytes(
                    datagram[FRAGMENT_SENDER], "big") == self.sender_id:
                self.stats.drop("own_echo")
                return None
            try:
                frag = decode_fragment(datagram)
            except LcmsecError:
                self.stats.drop("bad_fragment")
                return None
            try:
                assembled = self._reassembly.add(frag, now)
            except LcmsecError:
                self.stats.drop("bad_fragment")
                return None
            if assembled is None:
                return None
            enc_name, body = assembled
            if not 0 < len(enc_name) <= MAX_CHANNELNAME:
                self.stats.drop("bad_fragment")
                return None
            return self._open(frag.seqno, frag.sender_id, enc_name, body,
                              now)
        if magic in (MAGIC_MANAGEMENT, MAGIC_PLAIN):
            self.stats.drop("not_data")
            return None
        self.stats.drop("bad_magic")
        return None

    def _open(self, seqno: int, sender_id: int, enc_name: bytes | None,
              sealed_tail: bytes, now: float,
              start: int = 0) -> tuple[str, bytes] | None:
        """Core pipeline: name under the group key, body under the channel
        key, then the replay check. ``enc_name`` is None for unfragmented
        packets, whose name boundary only a group key holder can find; their
        tail is ``sealed_tail`` from ``start`` on, so it is not copied out
        of the datagram first."""
        group_slots = self.keys.slots("", now)
        if not group_slots:
            self.stats.drop("no_group_key")
            return None
        reason = "garbled_name"
        for g_slot in group_slots:
            k_g = g_slot.material
            iv_g = build_iv(k_g.salt, sender_id, seqno)
            if enc_name is None:
                bound = min(MAX_CHANNELNAME, len(sealed_tail) - start - 16)
                # names are nearly always short: probe one keystream block
                # before paying for the full 256-byte bound
                probe = min(bound, 16)
                plain = ctr_crypt(k_g, iv_g,
                                  sealed_tail[start:start + probe])
                nul = plain.find(0)
                if nul < 0 and probe < bound:
                    plain = ctr_crypt(k_g, iv_g,
                                      sealed_tail[start:start + bound])
                    nul = plain.find(0)
                if nul < 0:
                    continue
                name_nul = plain[:nul + 1]
                sealed = sealed_tail[start + nul + 1:]
            else:
                name_nul = ctr_crypt(k_g, iv_g, enc_name)
                if not name_nul.endswith(b"\x00") or 0 in name_nul[:-1]:
                    continue
                sealed = sealed_tail
            channel = self._channel_of.get(name_nul)
            if channel is None:
                raw = name_nul[:-1]
                if not raw.isascii() or not raw:
                    continue
                channel = raw.decode("ascii")
            if channel not in self.subscriptions:
                reason = "unsubscribed"
                continue
            self._channel_of[name_nul] = channel
            channel_slots = self.keys.slots(channel, now)
            if not channel_slots:
                reason = "no_channel_key"
                continue
            for slot in channel_slots:
                k_ch = slot.material
                iv_ch = build_iv(k_ch.salt, sender_id, seqno)
                try:
                    payload = aead_open(k_ch, iv_ch, sealed, aad=name_nul)
                except (AuthFailure, TooShort):
                    reason = "auth_failure"
                    continue
                window = slot.windows.get(sender_id)
                if window is None:
                    window = slot.windows[sender_id] = ReplayWindow()
                if not window.check(seqno):
                    self.stats.drop("replayed")
                    return None
                self.stats.delivered += 1
                return channel, payload
        self.stats.drop(reason)
        return None
