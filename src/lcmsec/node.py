"""Sans-io node: discovery per scope, key agreement, and the data path.

One node runs a discovery driver for the group scope plus one per channel
it participates in. Group commits assign the sender id, reset the shared
send counter and, in the same call, re-derive every keyed channel's payload
key from its unchanged seed under the new group agreement's seed and
instance id (the counter reset would otherwise repeat IVs). Channel
agreements run only when a member enters that channel; their commits
install payload keys under the current group agreement. The node itself
never touches a socket: datagrams and timestamps are handed in, and outbound
datagrams are handed back. Timers and certificate expiry run on that ``now``,
tied to UTC by one wall-clock reading at ``ChainVerdicts.utc``'s first call.
"""

from __future__ import annotations

import logging
import random

from . import wire
from .crypto import channel_key_context, kdf_expand, key_context
from .discovery import ChainVerdicts, CommitResult, DiscoveryDriver, Phase
from .errors import CounterExhausted, LcmsecError
from .gka import LocalIdentity
from .identity import LCMDomain, authorize
from .session import DEFAULT_MTU, Session

log = logging.getLogger(__name__)

_MANAGEMENT_MAGIC = wire.MAGIC_MANAGEMENT.to_bytes(4, "big")


class LcmsecNode:
    """Everything about one multicast group membership, minus the I/O.

    ``drivers`` holds one discovery driver per scope, keyed by channel; the
    group scope is ``""``. Without ``rng`` the node draws its agreement
    scalars and its timer jitter from the OS CSPRNG (``SystemRandom``); a
    seeded ``random.Random`` makes simulations and tests reproducible.
    """

    def __init__(self, identity: LocalIdentity, roots, group: str,
                 channels=(), rng=None, *, mtu=DEFAULT_MTU):
        self.identity = identity
        self.group = group
        self.channels = tuple(dict.fromkeys(channels))
        self.rng = rng or random.SystemRandom()
        self.session = Session(group, self.channels, mtu=mtu)
        chains = ChainVerdicts(roots)
        self.drivers = {
            ch: DiscoveryDriver(LCMDomain(group, ch), identity, chains,
                                self.rng)
            for ch in ("", *self.channels)}
        self._group_result: CommitResult | None = None
        #: each channel's last commit, re-derived under every group commit
        self._channel_results: dict[str, CommitResult] = {}
        self._deliveries: list[tuple[str, bytes]] = []
        self.stats = {"foreign_scope": 0}

    # -------------------------------------------------------------- lifecycle

    def start(self, now: float) -> list[bytes]:
        """Join the group scope; channel scopes follow the group commit.

        Raises NotAuthorized or Expired, before anything is sent, unless the
        certificate grants the group and every configured channel.
        """
        for driver in self.drivers.values():
            authorize(self.identity.cert, driver.scope, driver.chains.utc(now))
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
        out = driver.handle(env, now)
        out.extend(self._pump_events(now))
        return self._encode(out)

    def on_timer(self, now: float) -> list[bytes]:
        out = []
        for driver in self.drivers.values():
            out.extend(driver.on_timer(now))
        out.extend(self._pump_events(now))
        return self._encode(out)

    def next_wakeup(self) -> float | None:
        best = None
        for d in self.drivers.values():
            t = d.next_wakeup()
            if t is not None and (best is None or t < best):
                best = t
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
            raise

    # -------------------------------------------------------------- internals

    def _encode(self, envs) -> list[bytes]:
        return [wire.encode_management(e) for e in envs]

    def _pump_events(self, now: float):
        out = []
        for channel, driver in self.drivers.items():
            for kind, result in driver.take_events():
                if kind != "committed":
                    continue
                if channel:
                    self._on_channel_commit(channel, result, now)
                else:
                    out.extend(self._on_group_commit(result, now))
        return out

    def _on_group_commit(self, result: CommitResult, now: float):
        self._group_result = result
        material = kdf_expand(
            result.seed, key_context(self.group, "", result.instance_id))
        # the counter resets, so every keyed channel re-keys in the same call
        channels = {ch: self._channel_material(ch, r)
                    for ch, r in self._channel_results.items()}
        self.session.install_group(material, result.sender_ids[
            self.identity.uid], now, channels)
        log.debug("%s: group epoch %d (%d members)", self.group,
                  result.epoch, len(result.members))
        out = []
        for channel, driver in self.drivers.items():
            if channel and driver.phase is Phase.IDLE:
                out.extend(driver.initiate_join(now))
        return out

    def _on_channel_commit(self, channel: str, result: CommitResult,
                           now: float):
        self._channel_results[channel] = result
        self.session.install_channel(
            channel, self._channel_material(channel, result), now)
        log.debug("%s/%s: channel epoch %d", self.group, channel,
                  result.epoch)

    def _channel_material(self, channel: str, result: CommitResult):
        """Payload key from the channel seed under the current group
        agreement; a channel commits only after the group has."""
        group = self._group_result
        return kdf_expand(
            result.seed, channel_key_context(
                self.group, channel, result.instance_id, group.seed,
                group.instance_id))
