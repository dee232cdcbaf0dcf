"""Two-round group key agreement over a ring, with dynamic joins.

Round 1 broadcasts g^x_i; round 2 broadcasts Y_i, the ratio of the
Diffie-Hellman keys a node shares with its right and left ring neighbors.
From all Y values every member recovers every right key and folds them into
one shared element, so two broadcast rounds suffice regardless of group size.

One :class:`RingConfig` describes an agreement, the same for every member,
and each member derives its part from it. A join runs the same exchange
over a small ring: up to three incumbents, then the joiners. The scalar at
index 0 of a join is derived from the previous session seed, so every
incumbent outside the ring replays that member's exchange from broadcast
traffic alone and stays silent.

Every message carries the agreement's instance id, and a session accepts
only its own. The discovery driver picks ids above every id it has attempted
or seen, so captured round messages replayed later target an instance that
no longer runs.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import reduce

from cryptography.hazmat.primitives.asymmetric import ec

from . import crypto
from .ecgroup import P256
from .errors import InvalidElement
from .identity import LCMDomain, PeerCertificate
from .wire import (ManagementEnvelope, MsgKind, encode_gka_payload,
                   signed_region)

log = logging.getLogger(__name__)

#: a round still incomplete this long after it began fails the agreement,
#: and discovery restarts
ROUND_TIMEOUT = 2.0
#: pace of the agreement's own resends, and of straggler help after it
REBROADCAST_INTERVAL = 0.25


@dataclass(frozen=True)
class LocalIdentity:
    """This node's credential for one multicast group."""

    uid: int
    cert: PeerCertificate
    key: ec.EllipticCurvePrivateKey


def sign_envelope(kind: MsgKind, scope: LCMDomain, identity: LocalIdentity,
                  payload: bytes) -> ManagementEnvelope:
    """A control message for ``scope``, signed with this node's key."""
    region = signed_region(kind, scope.group, scope.channel, payload)
    return ManagementEnvelope(
        kind=kind, group=scope.group, channel=scope.channel, payload=payload,
        signer_ref=identity.cert.fingerprint,
        signature=crypto.sign(region, identity.key))


def ring_order(participants: Iterable[tuple[int, PeerCertificate]],
               joiners: Iterable[tuple[int, PeerCertificate]],
               ) -> list[tuple[int, PeerCertificate]]:
    """The ring of an agreement, as every member orders it.

    Without ``participants`` it is a fresh agreement over the joiners in uid
    order. A join ring starts with the representatives, the first, second
    and last participant by uid, followed by the joiners by uid.
    """
    by_uid = sorted(participants, key=lambda p: p[0])
    return by_uid[:2] + by_uid[2:][-1:] + sorted(joiners, key=lambda p: p[0])


@dataclass(frozen=True)
class RingConfig:
    """One agreement, described alike for every member: its ring in
    :func:`ring_order`, its instance id and, for a join, the previous
    session seed."""

    scope: LCMDomain
    participants: list[tuple[int, PeerCertificate]]  # ring order
    instance_id: int
    previous_seed: bytes | None = None

    def __post_init__(self):
        uids = self.uids
        if len(set(uids)) != len(uids):
            raise ValueError("duplicate uid in ring")
        if len(uids) < 2:
            raise ValueError("ring needs at least two members")
        if self.instance_id < 1:
            raise ValueError("instance id starts at 1")

    @property
    def uids(self) -> list[int]:
        return [uid for uid, _ in self.participants]


class GkaPhase(Enum):
    INIT = "init"
    R1_SENT = "r1-sent"
    R2_SENT = "r2-sent"
    DONE = "done"
    FAILED = "failed"


class GkaSession:
    """One in-flight agreement instance; messages are handed in one by one.

    Every member gets the same :class:`RingConfig` and derives its part
    from its own uid: a ring member plays its ring index, and an incumbent
    outside a join ring is ``passive``. It plays index 0, the first
    representative, whose view it reconstructs from the previous seed
    without transmitting.

    The discovery driver parses each round and checks its signature, scope,
    kind and instance freshness before handing the fields in; the session
    checks that the round is of its own instance and that the signer is
    the ring member the payload names. ``sent`` holds the rounds this
    member broadcast, in order. A member's key reads only the round 1 of
    the members in ``round1_uids``; the session drops the rest unparsed,
    and so does the driver, before their signature checks.
    """

    def __init__(self, config: RingConfig, identity: LocalIdentity, *,
                 rng=None):
        self.config = config
        self.identity = identity
        self.phase = GkaPhase.INIT
        self.seed: bytes | None = None
        self.failure_reason: str | None = None
        self.stats: dict[str, int] = {}

        uids = config.uids
        self._n = len(uids)
        self._index_of = {uid: i for i, uid in enumerate(uids)}
        self._uid_by_ref = {cert.fingerprint: uid
                            for uid, cert in config.participants}
        self.passive = identity.uid not in self._index_of
        if self.passive and config.previous_seed is None:
            raise ValueError("only a join has members outside its ring")
        #: the ring index whose part this member plays
        self.index = i = self._index_of.get(identity.uid, 0)
        #: ring members whose round 1 this member's key reads: itself and
        #: its two neighbours (a passive follower's are those of the
        #: representative it simulates); every round 2 is read
        self.round1_uids = frozenset(
            uids[j % self._n] for j in (i - 1, i, i + 1))
        self._z: dict[int, object] = {}      # ring index -> round-1 element
        self._y: dict[int, object] = {}      # ring index -> round-2 element
        self._kl = None
        self._kr = None
        self._keys_ready = False
        self.sent: list[ManagementEnvelope] = []
        self._deadline: float | None = None
        self._next_send: float | None = None

        if config.previous_seed is not None and i == 0:
            self._x = crypto.derive_join_scalar(config.previous_seed,
                                                config.instance_id)
        else:
            self._x = P256.random_scalar(rng)
        self._my_z = P256.exp(P256.generator, self._x)

    # ------------------------------------------------------------- lifecycle

    def start(self, now: float) -> list[ManagementEnvelope]:
        if self.phase is not GkaPhase.INIT:
            return []
        self._z[self.index] = self._my_z
        self.phase = GkaPhase.R1_SENT
        self._deadline = now + ROUND_TIMEOUT
        if self.passive:
            return []
        env = self._envelope(MsgKind.GKA_ROUND1, 1, self._my_z)
        self.sent.append(env)
        self._next_send = now + REBROADCAST_INTERVAL
        return [env]

    def handle(self, signer_ref: bytes, uid: int, round_no: int,
               element_raw: bytes, instance: int, now: float
               ) -> list[ManagementEnvelope]:
        if self.phase in (GkaPhase.DONE, GkaPhase.FAILED,
                          GkaPhase.INIT):
            return []
        if instance != self.config.instance_id:
            return self._drop("wrong_instance")
        if uid not in self._index_of:
            return self._drop("unknown_sender")
        signer_uid = self._uid_by_ref.get(signer_ref)
        if signer_uid is None:
            return self._drop("unknown_sender")
        if signer_uid != uid:
            return self._drop("bad_signature")
        if round_no == 1 and uid not in self.round1_uids:
            return []                    # the key never reads it
        try:
            element = P256.deserialize(element_raw)
        except InvalidElement:
            return self._drop("bad_element")

        index = self._index_of[uid]
        store = self._z if round_no == 1 else self._y
        if index in store:
            if store[index] != element:
                if self.passive and index == self.index:
                    # the simulated view was pre-stored; a verified message
                    # contradicting it means the previous seed diverged
                    self._fail("representative traffic does not match the "
                               "previous seed")
                    return []
                return self._drop("conflicting_element")
            return []
        store[index] = element
        out = self._advance(now)
        self._maybe_complete()
        return out

    def on_timer(self, now: float) -> list[ManagementEnvelope]:
        if self.phase in (GkaPhase.DONE, GkaPhase.FAILED, GkaPhase.INIT):
            return []
        if self._deadline is not None and now >= self._deadline:
            self._fail(f"timed out in phase {self.phase.value} "
                       f"({len(self._z)}/{len(self.round1_uids)} round-1, "
                       f"{len(self._y)}/{self._n} round-2)")
            return []
        # a passive follower sends nothing, so it has no resend time
        if self._next_send is None or now < self._next_send:
            return []
        self._next_send = now + REBROADCAST_INTERVAL
        return self.sent[::-1]           # round 2 first

    def next_wakeup(self) -> float | None:
        if self.phase in (GkaPhase.DONE, GkaPhase.FAILED, GkaPhase.INIT):
            return None
        times = [t for t in (self._deadline, self._next_send)
                 if t is not None]
        return min(times) if times else None

    # -------------------------------------------------------------- internals

    def _drop(self, reason: str) -> list[ManagementEnvelope]:
        self.stats[reason] = self.stats.get(reason, 0) + 1
        return []

    def _fail(self, reason: str):
        self.phase = GkaPhase.FAILED
        self.failure_reason = reason
        log.debug("agreement %s/%s#%d failed: %s", self.config.scope.group,
                  self.config.scope.channel or "<group>",
                  self.config.instance_id, reason)

    def _envelope(self, kind: MsgKind, round_no: int,
                  element) -> ManagementEnvelope:
        payload = encode_gka_payload(self.identity.uid, round_no,
                                     P256.serialize(element),
                                     self.config.instance_id)
        return sign_envelope(kind, self.config.scope, self.identity, payload)

    def _advance(self, now: float) -> list[ManagementEnvelope]:
        if self._keys_ready:
            return []
        i, n = self.index, self._n
        left, right = (i - 1) % n, (i + 1) % n
        if left not in self._z or right not in self._z:
            return []
        self._kl = P256.exp(self._z[left], self._x)
        self._kr = P256.exp(self._z[right], self._x)
        self._keys_ready = True
        my_y = P256.op(self._kr, P256.inv(self._kl))
        if self.passive:
            if i in self._y and self._y[i] != my_y:
                self._fail("representative round-2 element does not match "
                           "the previous seed")
                return []
            self._y[i] = my_y
            return []
        self._y.setdefault(i, my_y)
        if self._y[i] != my_y:
            self._fail("own round-2 element conflicts with observed one")
            return []
        env = self._envelope(MsgKind.GKA_ROUND2, 2, my_y)
        self.sent.append(env)
        self.phase = GkaPhase.R2_SENT
        self._deadline = now + ROUND_TIMEOUT
        return [env]

    def _maybe_complete(self):
        if self.phase in (GkaPhase.DONE, GkaPhase.FAILED):
            return
        if not self._keys_ready or len(self._y) < self._n:
            return
        i, n = self.index, self._n
        right_keys: list = [None] * n
        right_keys[i] = self._kr
        current = self._kr
        for k in range(1, n):
            j = (i + k) % n
            current = P256.op(self._y[j], current)
            right_keys[j] = current
        if right_keys[(i - 1) % n] != self._kl:
            self._fail("ring does not close: recovered left key differs")
            return
        folded = reduce(P256.op, right_keys)
        self.seed = P256.serialize(folded)
        self.phase = GkaPhase.DONE
