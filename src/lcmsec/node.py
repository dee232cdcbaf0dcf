"""Sans-io node: discovery per scope, key agreement, and the data path.

One node runs a discovery driver for the group scope plus one per channel
it participates in. Group commits assign the sender id, reset the shared
send counter and, in the same call, re-derive every keyed channel's payload
key from its unchanged seed under the new group agreement's seed and
instance id (the counter reset would otherwise repeat IVs). Channel
agreements run only when a member enters that channel; their commits
install payload keys under the current group agreement. The node itself
never touches a socket or a clock: datagrams and timestamps are handed in,
and outbound datagrams are handed back.
"""

from __future__ import annotations

import logging
import random

from . import wire
from .crypto import channel_key_context, kdf_expand, key_context
from .discovery import ChainVerdicts, CommitResult, DiscoveryDriver, Phase
from .errors import CounterExhausted, LcmsecError
from .gka import InstanceLedger, LocalIdentity
from .identity import LCMDomain
from .session import Session, material_epoch

log = logging.getLogger(__name__)

_MANAGEMENT_MAGIC = wire.MAGIC_MANAGEMENT.to_bytes(4, "big")


class LcmsecNode:
    """Everything about one multicast group membership, minus the I/O."""

    def __init__(self, identity: LocalIdentity, roots, group: str,
                 channels=(), rng=None, *, mtu=None, window_size=None,
                 grace=None, timing=None):
        self.identity = identity
        self.group = group
        self.channels = tuple(dict.fromkeys(channels))
        self.rng = rng or random.Random()
        self.ledger = InstanceLedger()
        session_kw = {}
        if mtu is not None:
            session_kw["mtu"] = mtu
        if window_size is not None:
            session_kw["window_size"] = window_size
        if grace is not None:
            session_kw["grace"] = grace
        self.session = Session(group, self.channels, cert=identity.cert,
                               **session_kw)
        driver_kw = {"chains": ChainVerdicts(roots)}
        if timing is not None:
            driver_kw["timing"] = timing
        self._group_driver = DiscoveryDriver(
            LCMDomain(group, ""), identity, roots, self.ledger,
            self.rng, **driver_kw)
        self._channel_drivers = {
            ch: DiscoveryDriver(LCMDomain(group, ch), identity, roots,
                                self.ledger, self.rng, **driver_kw)
            for ch in self.channels}
        self._group_result: CommitResult | None = None
        #: each channel's last commit, re-derived under every group commit
        self._channel_results: dict[str, CommitResult] = {}
        self._deliveries: list[tuple[str, bytes]] = []
        self._started = False
        self.stats = {"foreign_scope": 0}

    # -------------------------------------------------------------- lifecycle

    def start(self, now: float) -> list[bytes]:
        """Join the group scope; channel scopes follow the group commit."""
        self._started = True
        return self._encode(self._group_driver.initiate_join(now))

    @property
    def ready(self) -> bool:
        """True once this node can publish and receive on every channel."""
        return (self._group_driver.phase is Phase.COMMITTED
                and self.session.sender_id is not None
                and all(d.phase is Phase.COMMITTED and d.seed is not None
                        for d in self._channel_drivers.values()))

    @property
    def group_epoch(self) -> int:
        return self._group_driver.epoch

    def channel_epoch(self, channel: str) -> int:
        return self._channel_drivers[channel].epoch

    @property
    def group_seed(self) -> bytes | None:
        """Agreed group-scope seed, None before the first commit."""
        return self._group_driver.seed

    def channel_seed(self, channel: str) -> bytes | None:
        return self._channel_drivers[channel].seed

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
        driver = self._driver_for(env.group, env.channel)
        if driver is None:
            self.stats["foreign_scope"] += 1
            return []
        out = driver.handle(env, now)
        out.extend(self._pump_events(now))
        return self._encode(out)

    def on_timer(self, now: float) -> list[bytes]:
        out = []
        for driver in self._all_drivers():
            out.extend(driver.on_timer(now))
        out.extend(self._pump_events(now))
        return self._encode(out)

    def next_wakeup(self) -> float | None:
        best = self._group_driver.next_wakeup()
        for d in self._channel_drivers.values():
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

        Raises NoKey before the scopes committed and CounterExhausted when
        the sequence space is spent; exhaustion starts a group re-key by
        itself, so the caller only has to retry once it completes.
        """
        try:
            return self.session.publish(channel, payload, now)
        except CounterExhausted:
            log.warning("%s: send counter exhausted, forcing a re-key",
                        self.group)
            self._group_driver.force_rekey(now)
            raise

    # -------------------------------------------------------------- internals

    def _all_drivers(self):
        yield self._group_driver
        yield from self._channel_drivers.values()

    def _driver_for(self, group: str, channel: str):
        if group != self.group:
            return None
        if channel == "":
            return self._group_driver
        return self._channel_drivers.get(channel)

    def _encode(self, envs) -> list[bytes]:
        return [wire.encode_management(e) for e in envs]

    def _pump_events(self, now: float):
        out = []
        for result in self._group_driver.take_events():
            if result[0] == "committed":
                out.extend(self._on_group_commit(result[1], now))
        for channel, driver in self._channel_drivers.items():
            for result in driver.take_events():
                if result[0] == "committed":
                    self._on_channel_commit(channel, result[1], now)
        return out

    def _on_group_commit(self, result: CommitResult, now: float):
        self._group_result = result
        material = kdf_expand(
            result.seed, key_context(self.group, "", result.instance_id),
            epoch=result.epoch, scope="")
        # the counter resets, so every keyed channel re-keys in the same call
        channels = {ch: self._channel_material(ch, r)
                    for ch, r in self._channel_results.items()}
        self.session.install_group(material, result.sender_ids[
            self.identity.uid], now, channels)
        log.debug("%s: group epoch %d (%d members)", self.group,
                  result.epoch, len(result.members))
        out = []
        for driver in self._channel_drivers.values():
            if driver.phase is Phase.IDLE:
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
                group.instance_id),
            epoch=material_epoch(group.epoch, result.epoch), scope=channel)
