"""Sans-io node: group discovery, key agreement, and the data path.

Only the group scope gathers. Each JOIN and view lists the channels every
member is configured for, and at each group commit every member derives
each channel's ring from the frozen view: the members that list the
channel and whose certificate grants it. A ring equal to the one the
channel last committed, with no member new to the group, keeps its seed. A
ring of every group member takes a seed derived from the group seed.
Otherwise the ring's members run the channel agreement at once, under the
group's instance id: a join ring when the ring only adds members new to
the group, a fresh one otherwise, and the channel has no key until it
commits. A member whose part needs a channel seed it does not hold, or
whose channel agreement fails, forces a group re-key in which it takes a
joiner's slot.

Group commits assign the sender id, reset the shared send counter and, in
the same call, install every channel key derived under the new group
agreement's seed and instance id (the counter reset would otherwise repeat
IVs). The node itself never touches a socket: datagrams and timestamps are
handed in, and outbound datagrams are handed back. Timers and certificate
expiry run on that ``now``, tied to UTC by one wall-clock reading at
``ChainVerdicts.utc``'s first call.
"""

from __future__ import annotations

import logging
import random

from . import wire
from .crypto import (channel_key_context, derive_channel_seed, kdf_expand,
                     key_context)
from .discovery import (ChainVerdicts, CommitResult, DiscoveryDriver,
                        DiscoveryState, Phase)
from .errors import CounterExhausted, LcmsecError
from .gka import LocalIdentity
from .identity import LCMDomain, authorize
from .session import DEFAULT_MTU, Session

log = logging.getLogger(__name__)

_MANAGEMENT_MAGIC = wire.MAGIC_MANAGEMENT.to_bytes(4, "big")
#: marks a node's cached next wakeup as due for a fresh walk
_STALE = object()


class LcmsecNode:
    """Everything about one multicast group membership, minus the I/O.

    ``drivers`` holds one discovery driver per scope, keyed by channel; the
    group scope is ``""``, and only it gathers. Without ``rng`` the node
    draws its agreement scalars and its timer jitter from the OS CSPRNG
    (``SystemRandom``); a seeded ``random.Random`` makes simulations and
    tests reproducible.
    """

    def __init__(self, identity: LocalIdentity, roots, group: str,
                 channels=(), rng=None, *, mtu=DEFAULT_MTU):
        self.identity = identity
        self.group = group
        self.channels = tuple(dict.fromkeys(channels))
        self.rng = rng or random.SystemRandom()
        self.session = Session(group, self.channels, mtu=mtu)
        chains = ChainVerdicts(roots)
        self.drivers = {"": DiscoveryDriver(LCMDomain(group, ""), identity,
                                            chains, self.rng, self.channels)}
        for ch in self.channels:
            self.drivers[ch] = DiscoveryDriver(LCMDomain(group, ch), identity,
                                               chains, self.rng)
        self._group_result: CommitResult | None = None
        #: each keyed channel's seed, re-derived under every group commit
        self._channel_results: dict[str, CommitResult] = {}
        self._deliveries: list[tuple[str, bytes]] = []
        self.stats = {"foreign_scope": 0}
        #: the last next_wakeup, or _STALE once a driver's timers may move
        self._wakeup: float | None | object = _STALE

    # -------------------------------------------------------------- lifecycle

    def start(self, now: float) -> list[bytes]:
        """Join the group scope; channel keys follow from its commits.

        Raises NotAuthorized or Expired, before anything is sent, unless the
        certificate grants the group and every configured channel.
        """
        for driver in self.drivers.values():
            authorize(self.identity.cert, driver.scope, driver.chains.utc(now))
        self._wakeup = _STALE
        return self._encode(self.drivers[""].initiate_join(now))

    @property
    def ready(self) -> bool:
        """True once this node can publish and receive on every channel."""
        return (self.session.sender_id is not None
                and all(d.phase is Phase.COMMITTED and d.seed is not None
                        for d in self.drivers.values()))

    @property
    def group_epoch(self) -> int:
        return self.drivers[""].epoch

    def channel_epoch(self, channel: str) -> int:
        return self.drivers[channel].epoch

    @property
    def group_seed(self) -> bytes | None:
        """Agreed group-scope seed, None before the first commit."""
        return self.drivers[""].seed

    def channel_seed(self, channel: str) -> bytes | None:
        return self.drivers[channel].seed

    # ------------------------------------------------------------------- I/O

    def handle_datagram(self, data: bytes, now: float) -> list[bytes]:
        if data[:4] != _MANAGEMENT_MAGIC:
            # data path; the session counts what it drops, runts included
            result = self.session.receive(data, now)
            if result is not None:
                self._deliveries.append(result)
            return []
        try:
            env = wire.decode_management(data)
        except LcmsecError:
            self.session.stats.drop("bad_management")
            return []
        driver = (self.drivers.get(env.channel) if env.group == self.group
                  else None)
        if driver is None:
            self.stats["foreign_scope"] += 1
            return []
        self._wakeup = _STALE
        out = driver.handle(env, now)
        out.extend(self._pump_events(now))
        return self._encode(out)

    def on_timer(self, now: float) -> list[bytes]:
        self._wakeup = _STALE
        out = []
        for driver in self.drivers.values():
            out.extend(driver.on_timer(now))
        out.extend(self._pump_events(now))
        return self._encode(out)

    def next_wakeup(self) -> float | None:
        """The earliest timer of any scope. It is kept until a call that
        can move a timer: ``start``, a management datagram, ``on_timer``
        or a publish that forces a re-key. Data datagrams move none."""
        best = self._wakeup
        if best is _STALE:
            best = None
            for d in self.drivers.values():
                t = d.next_wakeup()
                if t is not None and (best is None or t < best):
                    best = t
            self._wakeup = best
        return best

    def take_deliveries(self) -> list[tuple[str, bytes]]:
        out, self._deliveries = self._deliveries, []
        return out

    def publish(self, channel: str, payload: bytes,
                now: float) -> list[bytes]:
        """Encrypted datagrams for one message.

        Raises NoKey before the scopes committed or for a channel the node
        was not configured with, and CounterExhausted when the sequence
        space is spent; exhaustion starts a group re-key by
        itself, so the caller only has to retry once it completes.
        """
        try:
            return self.session.publish(channel, payload, now)
        except CounterExhausted:
            # retries refused while that re-key runs neither log nor
            # schedule again
            if self.drivers[""].phase is Phase.COMMITTED:
                log.warning("%s: send counter exhausted, forcing a re-key",
                            self.group)
                self.drivers[""].force_rekey(now)
                self._wakeup = _STALE
            raise

    # -------------------------------------------------------------- internals

    def _encode(self, envs) -> list[bytes]:
        return [wire.encode_management(e) for e in envs]

    def _pump_events(self, now: float):
        out = []
        for channel, driver in self.drivers.items():
            for kind, result in driver.take_events():
                if kind == "committed":
                    if channel:
                        self._on_channel_commit(channel, result, now)
                    else:
                        out.extend(self._on_group_commit(result, now))
                elif channel:
                    # a failed channel agreement: the next group commit
                    # re-derives the ring with this member as a joiner. A
                    # group re-key already under way re-derives it too.
                    self.drivers[""].force_rekey(now, as_joiner=True)
        return out

    def _on_group_commit(self, result: CommitResult, now: float):
        self._group_result = result
        material = kdf_expand(
            result.seed, key_context(self.group, "", result.instance_id))
        rings = [(self.drivers[ch], self._channel_ring(ch, result, now))
                 for ch in self.channels]
        # the counter resets, so every keyed channel re-keys in the same call
        channels = {ch: self._channel_material(ch, r)
                    for ch, r in self._channel_results.items()}
        self.session.install_group(
            material, result.sender_ids[self.identity.uid], now, channels)
        log.debug("%s: group epoch %d (%d members)", self.group,
                  result.epoch, len(result.members))
        out = []
        for driver, ring in rings:
            if ring is not None:
                out.extend(driver.agree(ring, result.instance_id, now))
        return out

    def _channel_ring(self, channel: str, result: CommitResult, now: float
                      ) -> DiscoveryState | None:
        """Key ``channel`` from the group commit ``result`` by the rules in
        the module docstring; returns the ring to agree on, if any."""
        view, uid = result.view, self.identity.uid
        driver = self.drivers[channel]

        def listed(m):
            return channel in m.channels and m.cert.grants(self.group,
                                                           channel)
        ring = {u: m for u, m in result.members.items() if listed(m)}
        new = ring.keys() & view.joining.keys()  # lacked the last group seed
        held = (driver.state.participants.keys()
                if driver.phase is Phase.COMMITTED else None)
        start = None
        if uid not in ring or len(ring) < 2:
            driver.adopt(None, DiscoveryState())
        elif not new and held == ring.keys():
            return None                     # the channel keeps its seed
        elif len(ring) == len(result.members):
            seed = derive_channel_seed(result.seed, self.group, channel, ring)
            driver.adopt(seed, DiscoveryState(participants=ring))
            self._channel_results[channel] = CommitResult(
                driver.scope, driver.epoch, result.instance_id, seed,
                driver.state)
            return None
        else:
            # a join ring only adds members new to the group. It is fresh
            # once a member left, or one that joins again lists the channel
            # now or did before, since that one may lack the seed
            rejoined = view.participants.keys() & view.joining.keys()
            incumbents = {u: m for u, m in ring.items() if u not in new}
            if not new or (held is not None and not held <= ring.keys()) \
                    or any(u in ring or listed(view.participants[u])
                           for u in rejoined):
                incumbents = {}
            if held is None and (uid in incumbents or not new):
                # its part needs a seed it lacks: it takes a joiner's slot
                # in the next commit
                self.drivers[""].force_rekey(now, as_joiner=True)
            else:
                start = DiscoveryState(participants=incumbents, joining={
                    u: m for u, m in ring.items() if u not in incumbents})
        # nothing is sealed on this channel until it is keyed again
        self._channel_results.pop(channel, None)
        self.session.forget_channel(channel)
        return start

    def _on_channel_commit(self, channel: str, result: CommitResult,
                           now: float):
        self._channel_results[channel] = result
        self.session.install_channel(
            channel, self._channel_material(channel, result), now)
        log.debug("%s/%s: channel epoch %d", self.group, channel,
                  result.epoch)

    def _channel_material(self, channel: str, result: CommitResult):
        """Payload key from the channel seed and ring under the current
        group agreement; a channel commits only after the group has."""
        group = self._group_result
        return kdf_expand(
            result.seed, channel_key_context(
                self.group, channel, result.instance_id, group.seed,
                group.instance_id, result.members))
