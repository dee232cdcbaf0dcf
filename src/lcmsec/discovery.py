"""Leaderless discovery consensus driving the ring agreements.

Nodes announce themselves with signed JOIN messages carrying a deadline t.
A JOIN is answered with the whole view D = (P, J, t), and everyone keeps the
maximum view under a total order that prefers more participants, then more
joiners, then the earliest deadline. A gathering without committed
participants, such as a cold start, answers after a short random delay from
every member. A committed group answers through the join's representatives
alone, the three incumbents :func:`gka.ring_order` puts first in the ring, one
slot apart in rank order; the other incumbents fold the JOIN into their view
in silence. A representative skips its answer once an authenticated view from
another member lists the joiner, and answers again when the joiner
re-announces, as SRM schedules who repairs a loss. At the deadline
the view freezes and the key agreement runs over it; on success the joiners
become participants, on failure everything resets and discovery restarts.

Only a node's group scope gathers. Every JOIN and view lists the channels
each member is configured for, and the node derives each channel's ring
from the frozen group view. A channel scope's driver has no JOINs, views,
gossip or deadline: it runs the agreement the node starts on a ring, or
holds a seed the node derived. A view leaves out members whose certificate
lapsed, and never grows past one datagram: a joiner that would take it
there is refused and counted.

Each agreement run gets a fresh instance id: one more than the driver's
floor, the highest id this node has attempted or seen advertised. Responses
gossip the floor, and verified agreement traffic with a newer id pulls
stragglers forward, so replayed runs can never be mistaken for current ones.
A committed member that sees a co-member's round of a newer id missed that
gathering, and joins again rather than keep a seed the group has left.

The driver is the node's only signature check for control traffic, and it
checks only messages that could change something. Every cheap check runs
first; a message that would leave the view, the instance floor and any
running agreement as they are is dropped as ``no_news`` unverified. An
unverified message never changes state, raises a floor, triggers help or
draws from the RNG.

Periodic resends stop once a peer has shown it holds what they carry, as
in Trickle (RFC 6206). A gathering node gossips its view at a pace that
doubles while its view and floor hold and drops back on any change. It
skips a gossip tick after another node sent it an authenticated copy of
its own view and floor, and a representative's answer counts as its own
tick. A joining node stops re-announcing once an authenticated view from
another node lists it among the joiners.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import cached_property
from hashlib import sha256
from typing import NamedTuple

from .errors import (Expired, MalformedUrn, NotAuthorized, NonCanonical,
                     Truncated)
from .gka import (GkaPhase, GkaSession, LocalIdentity, RingConfig, ring_order,
                  sign_envelope)
from .identity import LCMDomain, PeerCertificate, authorize, verify_chain
from .wire import (MAX_DATAGRAM, ManagementEnvelope, MsgKind,
                   encode_join_payload, encode_join_response_payload,
                   member_size, parse_gka_payload, parse_join_payload,
                   parse_join_response_payload, signed_region, view_size)
from . import crypto, gka

log = logging.getLogger(__name__)

#: deadline of a quiescent committed group: never reached
T_SENTINEL = 2**64 - 1

#: a JOIN's deadline lies BASE_OFFSET plus up to EPSILON_MAX seconds ahead
BASE_OFFSET = 0.500
EPSILON_MAX = 0.050
#: members answer JOINs after a random delay in this range (seconds)
RESPONSE_DELAY_MIN = 0.010
RESPONSE_DELAY_MAX = 0.100
#: a committed group's join representatives answer RESPONSE_DELAY_MIN plus
#: their rank times this after the JOIN; longer than a one-way delay (25 +/-
#: 5 ms on the simulator), so a lower rank's answer usually arrives first
#: and the next rank skips its own
RESPONSE_SLOT = 0.040
#: short enough for two or three re-announcements inside one gathering
#: window, so a lost JOIN still enters every view before it freezes
JOIN_REBROADCAST = 0.200
#: while gathering, the whole view is re-broadcast at this pace; lost
#: responses otherwise leave views quietly diverged until the ring
#: agreement folds garbage and everything restarts
VIEW_GOSSIP = 0.150
#: the gossip interval doubles while the view and floor hold, up to this,
#: and drops back to VIEW_GOSSIP when either changes (Trickle, RFC 6206)
VIEW_GOSSIP_MAX = 4 * VIEW_GOSSIP
#: JOINs promising a deadline further out than this are dropped
MAX_JOIN_HORIZON = 60.0


class Phase(Enum):
    IDLE = "idle"
    GATHERING = "gathering"
    AGREEING = "agreeing"
    COMMITTED = "committed"


class Member(NamedTuple):
    """One entry of a view: a certificate and the channels its holder is
    configured for, sorted."""

    cert: PeerCertificate
    channels: tuple[str, ...] = ()


@dataclass(frozen=True)
class DiscoveryState:
    """One view of the group: participants, joiners, next deadline (ms)."""

    participants: dict[int, Member] = field(default_factory=dict)
    joining: dict[int, Member] = field(default_factory=dict)
    t_ms: int = T_SENTINEL

    def canonical(self) -> bytes:
        h = sha256()
        for members in (self.participants, self.joining):
            for uid in sorted(members):
                cert, channels = members[uid]
                # names are ASCII without NUL, so 0xff ends a list
                h.update(cert.fingerprint + "\x00".join(channels).encode(
                    "ascii") + b"\xff")
            h.update(b"|")
        h.update(self.t_ms.to_bytes(8, "big"))
        return h.digest()

    def sort_key(self):
        return self._sort_key

    @cached_property
    def _sort_key(self):
        # more participants, then more joiners, then the EARLIER deadline;
        # membership breaks exact ties before certificate bytes do, so two
        # views differing in uids never order by key-generation entropy.
        # Kept per state: a state is never changed once built.
        return (len(self.participants), len(self.joining), -self.t_ms,
                tuple(sorted(self.participants)), tuple(sorted(self.joining)),
                self.canonical())


def compare(a: DiscoveryState, b: DiscoveryState) -> int:
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


def merge_max(a: DiscoveryState, b: DiscoveryState) -> DiscoveryState:
    return a if compare(a, b) >= 0 else b


@dataclass(frozen=True)
class CommitResult:
    scope: LCMDomain
    epoch: int
    instance_id: int
    seed: bytes
    #: the view the agreement ran over; its joiners lacked the previous seed
    view: DiscoveryState

    @property
    def members(self) -> dict[int, Member]:
        return {**self.view.participants, **self.view.joining}

    @property
    def sender_ids(self) -> dict[int, int]:
        return assign_sender_ids(self.members)


class ChainVerdicts:
    """Chain checks shared by one node's drivers, judged at the node's now.

    Chain validity does not depend on the scope, only the grant does, so one
    check per certificate serves the group and every channel; the node hands
    this to each of its drivers, which ask it on every use. A passing verdict
    is kept by fingerprint and lapses at the earlier ``not_valid_after`` of
    the certificate and the root that signed it, not of every root. A
    failing one is not kept, since anyone can mint a bad chain.
    """

    def __init__(self, roots):
        self.roots = roots
        self._until: dict[bytes, float] = {}    # lapse, as a node's now
        self._epoch: datetime | None = None     # UTC time at now == 0
        #: no kept verdict lapses before this
        self.next_lapse = math.inf

    def utc(self, now: float) -> datetime:
        """UTC time at ``now``; the first call reads the wall clock once."""
        if self._epoch is None:
            self._epoch = datetime.now(timezone.utc) - timedelta(seconds=now)
        return self._epoch + timedelta(seconds=now)

    def trusted(self, cert: PeerCertificate, now: float) -> bool:
        until = self._until.get(cert.fingerprint)
        if until is None:
            chain = verify_chain(cert, self.roots, self.utc(now))
            if not chain:
                return False
            until = self._until[cert.fingerprint] = (min(
                cert.cert.not_valid_after_utc, chain.root.not_valid_after_utc
            ) - self._epoch).total_seconds()
            self.next_lapse = min(self.next_lapse, until)
        return now <= until


def assign_sender_ids(uids) -> dict[int, int]:
    """Rank+1 in ascending uid order; identical on every node given equal D."""
    return {uid: rank + 1 for rank, uid in enumerate(sorted(uids))}


class DiscoveryDriver:
    """Single-scope discovery state machine; feed it envelopes and timers.

    All methods return envelopes to broadcast. Completed or failed
    agreements surface through :meth:`take_events`. ``chains`` holds the
    chain verdicts the node's drivers share, and ``channels`` the channels
    this node lists in its JOINs. ``floor`` is the highest instance id this
    driver attempted or took from authenticated traffic; the driver alone
    decides which instance ids are fresh.

    Only a group scope's driver gathers. A channel scope's driver drops
    JOINs and views, runs only the agreements :meth:`agree` starts on rings
    its caller derived, holds seeds :meth:`adopt` hands it, and leaves a
    failed agreement to its caller.
    """

    def __init__(self, scope: LCMDomain, identity: LocalIdentity,
                 chains: ChainVerdicts, rng, channels=()):
        self.scope = scope
        self.identity = identity
        self.chains = chains
        self.gathers = not scope.channel
        #: this node's own entry in every view
        self.member = Member(identity.cert, tuple(sorted(set(channels))))
        self.floor = 0
        self.rng = rng
        self.phase = Phase.IDLE
        self.state = DiscoveryState()
        self.epoch = 0
        self.seed: bytes | None = None          # last committed session seed
        self.stats: dict[str, int] = {}
        self.events: list[tuple[str, object]] = []

        self._pending: dict[int, tuple[int, Member]] = {}   # M
        self._known: dict[bytes, tuple[int, PeerCertificate]] = {}
        own = identity.cert.uid_for_group(scope.group)
        if own is not None:
            self._known[identity.cert.fingerprint] = (own, identity.cert)
        #: fingerprints that chain to a root but lack the grant; only the
        #: CA can mint those, so the set is as bounded as its issuance
        self._refused: set[bytes] = set()
        #: (signer, kind) -> (signature, payload) last verified from it
        self._verified: dict[tuple[bytes, MsgKind], tuple[bytes, bytes]] = {}
        self._session: GkaSession | None = None
        self._frozen: DiscoveryState | None = None
        self._join_env: ManagementEnvelope | None = None
        self._my_join_t: int | None = None
        self._response_at: float | None = None
        self._join_resend_at: float | None = None
        self._gossip_at: float | None = None
        self._gossip_interval = VIEW_GOSSIP
        #: (view, floor) when the gossip timer was last armed
        self._gossip_view: tuple[DiscoveryState, int] | None = None
        #: joiners an authenticated view from another member listed since
        #: their last JOIN, commit or restart; representatives skip them
        self._answered: set[int] = set()
        #: (view, floor) another node sent authenticated since the last
        #: gossip tick; the next tick is skipped while they are still ours
        self._echo: tuple[DiscoveryState, int] | None = None
        #: (state, floor, view payload) last encoded; states never change
        #: once built, so the state is matched by identity
        self._view_encoding: tuple[DiscoveryState | None, int, bytes] = (
            None, 0, b"")
        #: the last completed agreement, whose rounds help stragglers
        self._finished: GkaSession | None = None
        self._next_help = 0.0              # next time we may answer one

    # ----------------------------------------------------------- public API

    def initiate_join(self, now: float) -> list[ManagementEnvelope]:
        if self.phase is Phase.AGREEING:
            return self._drop("join_while_agreeing")
        if self.phase is not Phase.IDLE:
            return self._drop("join_while_active")
        try:
            authorize(self.identity.cert, self.scope, self.chains.utc(now))
        except Expired:     # NotAuthorized raises to the caller
            # peers refuse a lapsed certificate, so announcing it would
            # only spend datagrams: the scope stays idle
            log.warning("%s/%s: own certificate expired, not joining",
                        self.scope.group, self.scope.channel or "<group>")
            return self._drop("own_cert_expired")
        t_ms = self._fresh_deadline(now)
        self.state = DiscoveryState(
            participants={}, joining={self.identity.uid: self.member},
            t_ms=t_ms)
        out = self._announce(t_ms, now)
        self._gather(now)
        self._arm_response(now)
        return out

    def handle(self, env: ManagementEnvelope, now: float
               ) -> list[ManagementEnvelope]:
        if env.signer_ref == self.identity.cert.fingerprint:
            # multicast loops our own traffic back; it holds nothing new
            return self._drop("own_echo")
        if (env.group, env.channel) != (self.scope.group, self.scope.channel):
            return self._drop("wrong_scope")
        if not self.gathers and env.kind in (MsgKind.JOIN,
                                             MsgKind.JOIN_RESPONSE):
            return self._drop("no_gathering")
        if env.kind is MsgKind.JOIN:
            out = self._handle_join(env, now)
        elif env.kind is MsgKind.JOIN_RESPONSE:
            out = self._handle_join_response(env, now)
        else:
            out = self._handle_gka(env, now)
        self._retrickle(now)
        return out

    def on_timer(self, now: float) -> list[ManagementEnvelope]:
        out: list[ManagementEnvelope] = []
        if self.phase in (Phase.GATHERING, Phase.COMMITTED):
            self._prune(now)
        if self._response_at is not None and now >= self._response_at:
            self._response_at = None
            if self.phase in (Phase.GATHERING, Phase.COMMITTED):
                out.extend(self._flush_response(now))
            # in AGREEING/IDLE the flush is deferred; pending joins are
            # re-armed once the agreement settles or this node joins
        if self._join_resend_at is not None and now >= self._join_resend_at:
            if self.phase is Phase.GATHERING and self._join_env is not None \
                    and self.identity.uid in self.state.joining:
                out.append(self._join_env)
                self._join_resend_at = now + JOIN_REBROADCAST
            else:
                self._join_resend_at = None
        if self.phase is Phase.GATHERING:
            self._retrickle(now)
            if now >= self._gossip_at:
                echoed = self._echoed()
                self._echo = None
                self._arm_gossip(now, min(2 * self._gossip_interval,
                                          VIEW_GOSSIP_MAX))
                if echoed:
                    self._drop("gossip_echoed")
                else:
                    out.append(self._view_response())
        else:
            self._gossip_at = None
        if self.phase is Phase.GATHERING and self._now_ms(now) >= \
                self.state.t_ms:
            out.extend(self._freeze(now, self.floor + 1))
        if self.phase is Phase.AGREEING:
            out.extend(self._session.on_timer(now))
            out.extend(self._settle(now))
        return out

    def next_wakeup(self) -> float | None:
        # a running minimum: the node asks every scope on each poll, and
        # min(..., default=None) costs several times as much in CPython
        best = self._response_at
        if self.phase is Phase.GATHERING:
            t_ms = self.state.t_ms
            times = (self._join_resend_at, self._gossip_at,
                     None if t_ms == T_SENTINEL else t_ms / 1000.0)
        elif self.phase is Phase.AGREEING:
            times = (self._session.next_wakeup(),)
        else:
            return best
        for t in times:
            if t is not None and (best is None or t < best):
                best = t
        return best

    def take_events(self) -> list[tuple[str, object]]:
        out, self.events = self.events, []
        return out

    def force_rekey(self, now: float, as_joiner: bool = False) -> None:
        """Schedule a fresh agreement among the committed members.

        The node calls it on the group scope when the send counter is
        spent; the group commit resets the counter and re-keys every
        channel. With ``as_joiner`` this member takes a joiner's slot in
        it: the node's way to get a channel seed it lacks.
        """
        if self.phase is not Phase.COMMITTED:
            return
        t_ms = self._fresh_deadline(now)
        joining = self.state.joining
        if as_joiner:
            self._my_join_t = t_ms
            joining = {**joining, self.identity.uid: self.member}
        self.state = replace(self.state, joining=joining, t_ms=t_ms)
        self._gather(now)

    def agree(self, view: DiscoveryState, instance_id: int, now: float
              ) -> list[ManagementEnvelope]:
        """Start the agreement over ``view`` now, at ``instance_id``: a ring
        the caller derived, with no gathering. Its participants hold this
        scope's seed and its joiners do not. The ring's members are the
        only signers the driver knows from then on."""
        self._known = {cert.fingerprint: (uid, cert) for uid, (cert, _) in
                       (*view.participants.items(), *view.joining.items())}
        self.state = view
        return self._freeze(now, instance_id)

    def adopt(self, seed: bytes | None, view: DiscoveryState) -> None:
        """Hold ``seed`` as committed over ``view`` with no agreement, or,
        given None, hold no seed; an agreement still running is dropped."""
        self._session = self._frozen = None
        self.state = view
        self.seed = seed
        self.phase = Phase.IDLE if seed is None else Phase.COMMITTED
        if seed is not None:
            self.epoch += 1

    # ------------------------------------------------------------- incoming

    def _handle_join(self, env: ManagementEnvelope, now: float
                     ) -> list[ManagementEnvelope]:
        try:
            t_ms, der, channels = parse_join_payload(env.payload)
            cert = PeerCertificate.from_der(der)
        except (Truncated, NonCanonical, MalformedUrn, ValueError):
            return self._drop("malformed_join")
        if env.signer_ref != cert.fingerprint:
            return self._drop("bad_signature")
        uid = self._admit(cert, now)
        if uid is None or uid == self.identity.uid:
            # own echoes were dropped as own_echo: another certificate
            # carrying this node's uid is foreign
            return []
        now_ms = self._now_ms(now)
        horizon = now_ms + int(MAX_JOIN_HORIZON * 1000)
        if t_ms < now_ms or t_ms > horizon:
            return self._drop("stale_join")
        if not self._authentic(env, cert):
            return []
        out: list[ManagementEnvelope] = []
        if (self.phase is Phase.AGREEING
                and uid in self._session.config.uids
                and t_ms > self._frozen.t_ms):
            # an active ring member is asking to join again with a deadline
            # newer than the view we froze: it gave up on this instance, so
            # its round-2 will never come. Restart instead of stalling out
            # the round deadline; its re-announcements rebuild the view.
            out = self._restart(
                "ring member abandoned the running agreement", now)
        # a JOIN heard again means the joiner missed every answer so far
        self._answered.discard(uid)
        self._note_pending(uid, t_ms, Member(cert, channels), now)
        return out

    def _note_pending(self, uid: int, t_ms: int, member: Member,
                      now: float) -> None:
        entry = self._pending.get(uid)
        if entry is None or t_ms > entry[0]:
            # keep the newest deadline: a joiner that timed out waiting
            # re-announces with a later t, and replays only carry older ones
            self._pending[uid] = (t_ms, member)
            self._arm_response(now)

    def _handle_join_response(self, env: ManagementEnvelope, now: float
                              ) -> list[ManagementEnvelope]:
        own = self.phase in (Phase.GATHERING, Phase.COMMITTED)
        if own:
            self._prune(now)
            # most views a node hears are its own view and floor, byte for
            # byte: that view is self.state, with nothing to parse or admit
            own = env.payload == self._view_payload()
        if own:
            t_ms, floor = self.state.t_ms, self.floor
        else:
            try:
                t_ms, p_raw, j_raw, floor = parse_join_response_payload(
                    env.payload)
            except (Truncated, NonCanonical, ValueError):
                return self._drop("malformed_response")
            if self.phase in (Phase.AGREEING, Phase.IDLE):
                # the view merge must wait, but an authentic floor is worth
                # recording now so the next freeze picks an unused id
                signer = self._known.get(env.signer_ref)
                if floor > self.floor and signer is not None:
                    if self._admit(signer[1], now) is None or \
                            not self._authentic(env, signer[1]):
                        return []       # _admit or the gate counted why
                    self.floor = floor
                return self._drop("response_ignored")
        if self.phase is Phase.COMMITTED and t_ms < self._now_ms(now):
            # describes a gathering that already resolved; reacting to a
            # replay here would drag a settled group into pointless re-keys
            return self._drop("stale_response")
        incoming = self.state if own else self._parse_view(t_ms, p_raw,
                                                             j_raw, now)
        if incoming is None:
            return []                   # _parse_view counted why
        signer = self._known.get(env.signer_ref)
        if signer is None:
            return self._drop("unknown_responder")
        # the responder must be in the view it advertises, as itself
        listed = incoming.participants.get(signer[0]) or \
            incoming.joining.get(signer[0])
        if listed is None or listed.cert.fingerprint != env.signer_ref:
            return self._drop("foreign_responder")
        merged = self._keep_self(merge_max(self.state, incoming))
        if merged is not incoming and merged is not self.state and \
                self._view_bytes(merged) > MAX_DATAGRAM:
            return self._drop("view_full")      # no room to add this node
        floor_now = self.floor
        if merged is self.state and floor <= floor_now:
            # an equal view and floor is news only to the gossip timer,
            # and one verified copy per tick is enough to skip that tick;
            # a view listing a joiner this node waits to answer is news to
            # that answer
            echo = (self.phase is Phase.GATHERING and floor == floor_now
                    and not self._echoed()
                    and compare(incoming, self.state) == 0)
            if not echo and not self._answered_by(incoming, signer[0]):
                return self._drop("no_news")
            if not self._authentic(env, listed.cert):
                return []
            self._note_view(incoming, floor, signer[0])
            return self._drop("view_echo" if echo else "answer_heard")
        if not self._authentic(env, listed.cert):
            return []
        self.floor = max(floor_now, floor)
        if merged is not self.state:
            self.state = merged
            if self.phase is Phase.COMMITTED and \
                    self.state.t_ms != T_SENTINEL:
                # a re-key is gathering, with or without joiners: freeze
                # with it, or it runs without this member and fails
                self._gather(now)
        self._note_view(incoming, floor, signer[0])
        return []

    def _parse_view(self, t_ms: int, p_raw, j_raw, now: float
                    ) -> DiscoveryState | None:
        """The view a response advertises, with every member admitted and
        lapsed ones left out; None once a drop is counted."""
        try:
            p_in = [Member(PeerCertificate.from_der(d), ch) for d, ch in p_raw]
            j_in = [Member(PeerCertificate.from_der(d), ch) for d, ch in j_raw]
        except (Truncated, NonCanonical, MalformedUrn, ValueError):
            self._drop("malformed_response")
            return None
        participants: dict[int, Member] = {}
        joining: dict[int, Member] = {}
        for members, target in ((p_in, participants), (j_in, joining)):
            for member in members:
                if self._lapsed(member.cert, now):
                    continue            # a lapsed member leaves the view
                uid = self._admit(member.cert, now)
                if uid is None or uid in target:
                    self._drop("bad_member_cert")
                    return None
                if (target is joining and uid in participants
                        and participants[uid].cert.fingerprint
                        != member.cert.fingerprint):
                    # a participant may re-join, but only as itself
                    self._drop("bad_member_cert")
                    return None
                target[uid] = member
            if list(target) != sorted(target):
                self._drop("noncanonical_response")
                return None
        return DiscoveryState(participants=participants, joining=joining,
                              t_ms=t_ms)

    def _note_view(self, view: DiscoveryState, floor: int,
                   signer: int) -> None:
        """The authenticated view of ``signer``: what it shows it holds."""
        if self.identity.uid in view.joining:
            self._join_resend_at = None     # our JOIN has been heard
        # a joiner's own view shows nothing about whether it was answered
        self._answered.update(u for u in view.joining if u != signer)
        if floor == self.floor and compare(view, self.state) == 0:
            self._echo = (self.state, floor)

    def _answered_by(self, view: DiscoveryState, signer: int) -> bool:
        """Whether ``view`` from ``signer`` answers a joiner this node, as
        a representative, waits to answer."""
        return self._ranked() and any(
            u != signer and u in view.joining and u not in self._answered
            for u in self._pending)

    def _echoed(self) -> bool:
        echo = self._echo
        return (echo is not None and echo[0] is self.state
                and echo[1] == self.floor)

    def _handle_gka(self, env: ManagementEnvelope, now: float
                    ) -> list[ManagementEnvelope]:
        known = self._known.get(env.signer_ref)
        if known is None:
            return self._drop("unknown_gka_signer")
        uid = known[0]
        try:
            payload_uid, round_no, element, instance = parse_gka_payload(
                env.payload)
        except (Truncated, NonCanonical):
            return self._drop("malformed_gka")
        if round_no != (1 if env.kind is MsgKind.GKA_ROUND1 else 2):
            return self._drop("malformed_gka")
        if payload_uid != uid:
            return self._drop("bad_signature")
        # a straggler is still exchanging rounds we already completed
        done = self._finished
        helps = (done is not None and instance == done.config.instance_id
                 and done.sent and now >= self._next_help
                 and uid in done.config.uids)
        floor = self.floor
        session = self._session if self.phase is Phase.AGREEING else None
        running = session is not None and \
            instance == session.config.instance_id
        if not helps and (
                # without a gathering, instance ids come from the caller
                (not running and (instance <= floor or not self.gathers))
                or (running and round_no == 1
                    and uid not in session.round1_uids
                    and uid in session.config.uids)
                or (running and session.holds_simulated(uid, round_no,
                                                        element))):
            # an old round, a round 1 of the running agreement that this
            # member's key never reads, or a passive follower's copy of
            # the element it derived for the representative it simulates
            return self._drop("no_news")
        if self._admit(known[1], now) is None or \
                not self._authentic(env, known[1]):
            return []
        out: list[ManagementEnvelope] = []
        if helps:
            out.extend(done.sent)
            self._next_help = now + gka.REBROADCAST_INTERVAL
        if instance > floor:
            present = (uid in self.state.participants
                       or uid in self.state.joining)
            if self.phase is Phase.GATHERING and round_no == 1 and present:
                # a co-member already reached its deadline: freeze with it
                self._prune(now)
                out.extend(self._freeze(now, instance))
            elif self.phase is Phase.COMMITTED and \
                    uid in self.state.participants:
                # a co-member runs an agreement whose gathering this member
                # never heard: it cannot follow without the view, and would
                # keep a seed the group has left, so it joins again
                self.floor = instance
                return self._restart("missed a co-member's gathering", now)
            self.floor = instance
        if self.phase is Phase.AGREEING:
            session = self._session
            if (instance == session.config.instance_id
                    and uid not in session.config.uids):
                # a verified co-member transmits in this very instance but
                # is missing from the ring we froze: our view diverged, and
                # our round-2 would poison everyone's fold. Restarting now
                # is strictly cheaper than stalling out the round deadline.
                out.extend(self._restart(
                    "frozen ring is missing an active co-member", now))
                return out
            out.extend(session.handle(env.signer_ref, uid, round_no, element,
                                      instance, now))
            out.extend(self._settle(now))
        return out

    # ------------------------------------------------------------ internals

    def _now_ms(self, now: float) -> int:
        return int(round(now * 1000))

    def _fresh_deadline(self, now: float) -> int:
        offset = BASE_OFFSET + self.rng.uniform(0.0, EPSILON_MAX)
        return self._now_ms(now) + int(round(offset * 1000))

    def _drop(self, reason: str) -> list[ManagementEnvelope]:
        self.stats[reason] = self.stats.get(reason, 0) + 1
        return []

    def _lapsed(self, cert: PeerCertificate, now: float) -> bool:
        """Whether ``cert``'s chain verdict fails at ``now``; this node's own
        certificate is not chain-checked."""
        return cert.fingerprint != self.identity.cert.fingerprint and \
            not self.chains.trusted(cert, now)

    def _prune(self, now: float) -> None:
        """Leave members whose chain verdict lapsed out of this node's
        view, so that it neither gossips nor freezes them."""
        if now <= self.chains.next_lapse:
            return
        st = self.state
        live = [{u: m for u, m in members.items()
                 if not self._lapsed(m.cert, now)}
                for members in (st.participants, st.joining)]
        if len(live[0]) + len(live[1]) < \
                len(st.participants) + len(st.joining):
            self.state = DiscoveryState(*live, st.t_ms)

    def _view_bytes(self, state: DiscoveryState) -> int:
        """The largest datagram a view of ``state`` takes."""
        return view_size(self.scope.group, self.scope.channel, sum(
            member_size(m.cert.der, m.channels)
            for m in (*state.participants.values(),
                      *state.joining.values())))

    def _admit(self, cert: PeerCertificate, now: float) -> int | None:
        """Chain + permission check on every use; returns the uid.

        Chain verdicts come from the shared :class:`ChainVerdicts` and lapse
        at expiry; this node's own certificate is not chain-checked. Grants,
        and refusals for lacking one, are cached by fingerprint.
        """
        known = self._known.get(cert.fingerprint)
        if known is not None and (known[1] is self.identity.cert
                                  or self.chains.trusted(cert, now)):
            return known[0]
        if cert.fingerprint in self._refused:
            self._drop("unauthorized_cert")
            return None
        if not self.chains.trusted(cert, now):
            self._drop("untrusted_cert")
            return None
        try:
            perm = authorize(cert, self.scope, self.chains.utc(now))
        except (NotAuthorized, Expired) as exc:
            if isinstance(exc, NotAuthorized):
                self._refused.add(cert.fingerprint)
            self._drop("unauthorized_cert")
            return None
        self._known[cert.fingerprint] = (perm.uid, cert)
        return perm.uid

    def _authentic(self, env: ManagementEnvelope,
                   cert: PeerCertificate) -> bool:
        """The one signature gate, after every cheap check and the admission
        of the signer's ``cert``. A copy of the last JOIN or round verified
        from the same signer passes unchecked: this scope fixes the rest of
        the signed region. Views are signed afresh on every send."""
        key = (cert.fingerprint, env.kind)
        memo = (env.signature, env.payload)
        if self._verified.get(key) == memo:
            return True
        region = signed_region(env.kind, env.group, env.channel, env.payload)
        if not crypto.verify(region, env.signature, cert.public_key()):
            self._drop("bad_signature")
            return False
        if env.kind is not MsgKind.JOIN_RESPONSE:
            self._verified[key] = memo
        return True

    def _keep_self(self, merged: DiscoveryState) -> DiscoveryState:
        """A wholesale view replacement must not orphan this node.

        While this node is actively joining it also must not end up listed
        only as a participant: views from before its last restart say P,
        but without the current seed it needs a joiner slot in the ring.
        """
        uid = self.identity.uid
        joining_myself = self._my_join_t is not None
        if uid in merged.joining or (uid in merged.participants
                                     and not joining_myself):
            return merged
        joining = dict(merged.joining)
        joining[uid] = self.member
        t_ms = merged.t_ms
        if self._my_join_t is not None:
            t_ms = min(t_ms, self._my_join_t)
        return DiscoveryState(participants=merged.participants,
                              joining=joining, t_ms=t_ms)

    def _announce(self, t_ms: int, now: float) -> list[ManagementEnvelope]:
        """Sign this node's JOIN with deadline ``t_ms`` and re-send it every
        :data:`JOIN_REBROADCAST` until a view from another node lists it."""
        self._my_join_t = t_ms
        payload = encode_join_payload(t_ms, self.identity.cert.der,
                                      self.member.channels)
        self._join_env = sign_envelope(MsgKind.JOIN, self.scope,
                                       self.identity, payload)
        self._join_resend_at = now + JOIN_REBROADCAST
        return [self._join_env]

    def _fold_pending(self, now: float) -> bool:
        """Take the pending JOINs into the view; True if one was news."""
        # a join from a listed participant is news too: it means that node
        # missed the agreement (or restarted) and needs a ring slot of its
        # own, since without the current seed it cannot follow passively
        fresh = {uid: tc for uid, tc in self._pending.items()
                 if uid not in self.state.joining}
        if not fresh:
            return False
        joining = dict(self.state.joining)
        t_ms = self.state.t_ms
        room = MAX_DATAGRAM - self._view_bytes(self.state)
        for uid, (t, member) in fresh.items():
            need = member_size(member.cert.der, member.channels)
            if need > room:
                # its entry would take the view past one datagram
                del self._pending[uid]
                self._drop("view_full")
                continue
            room -= need
            joining[uid] = member
            t_ms = min(t_ms, t)
        if len(joining) == len(self.state.joining):
            return False
        self.state = DiscoveryState(participants=self.state.participants,
                                    joining=joining, t_ms=t_ms)
        if self.phase is Phase.COMMITTED:
            self._gather(now)
        return True

    def _flush_response(self, now: float) -> list[ManagementEnvelope]:
        """Fold the pending JOINs in and answer them, if this node is one
        to answer."""
        reps = self._representatives()
        fresh = self._fold_pending(now)
        pending, self._pending = self._pending, {}
        if reps is None:
            return [self._view_response()] if fresh else []
        if self.identity.uid not in reps or pending.keys() <= self._answered:
            return []
        # the answer is this node's gossip tick: Trickle counts a node's
        # own transmissions, so the next tick comes at the doubled interval
        self._retrickle(now)
        self._arm_gossip(now, min(2 * self._gossip_interval, VIEW_GOSSIP_MAX))
        return [self._view_response()]

    def _view_payload(self) -> bytes:
        """This node's view and floor as a view payload, encoded once per
        (state, floor) pair."""
        st, floor = self.state, self.floor
        cached = self._view_encoding
        if cached[0] is not st or cached[1] != floor:
            cached = self._view_encoding = (st, floor, (
                encode_join_response_payload(
                    st.t_ms,
                    [(u, m.cert.der, m.channels)
                     for u, m in st.participants.items()],
                    [(u, m.cert.der, m.channels)
                     for u, m in st.joining.items()],
                    floor)))
        return cached[2]

    def _view_response(self) -> ManagementEnvelope:
        return sign_envelope(MsgKind.JOIN_RESPONSE, self.scope, self.identity,
                             self._view_payload())

    def _gather(self, now: float) -> None:
        """Gather towards the view's deadline, gossiping the view."""
        self.phase = Phase.GATHERING
        self._arm_gossip(now)

    def _ranked(self) -> bool:
        """Whether this node answers JOINs by rank: it is a committed
        participant of its view, not joining again. A cold start, or a
        view merged after a restart, answers at random."""
        uid = self.identity.uid
        return uid in self.state.participants and \
            uid not in self.state.joining

    def _representatives(self) -> list[int] | None:
        """The uids that answer the pending JOINs, in rank order: the
        representatives the join ring starts with; None unless ranked."""
        if not self._ranked():
            return None
        joining = self.state.joining.keys() | self._pending.keys()
        core = [(u, c) for u, c in self.state.participants.items()
                if u not in joining]
        return [u for u, _ in ring_order(core, ())]

    def _arm_response(self, now: float) -> None:
        """Answer the pending JOINs once: after a random delay, or in a
        committed group at a representative's slot."""
        reps = self._representatives()
        if reps is None:
            if self._pending and self._response_at is None:
                self._response_at = now + self.rng.uniform(
                    RESPONSE_DELAY_MIN, RESPONSE_DELAY_MAX)
            return
        if self.phase is Phase.AGREEING:
            return              # the commit re-arms what is still pending
        # a committed member takes the JOINs in at once; only the answer
        # waits, and only a representative keeps them for it
        self._fold_pending(now)
        uid = self.identity.uid
        if uid not in reps:
            self._pending.clear()
        elif self._pending and self._response_at is None:
            self._response_at = now + RESPONSE_DELAY_MIN + \
                RESPONSE_SLOT * reps.index(uid)

    def _arm_gossip(self, now: float, interval: float = VIEW_GOSSIP
                    ) -> None:
        """Next gossip tick ``interval`` ahead; a tick passes the doubled
        interval only if the view and floor held since this arm."""
        view = (self.state, self.floor)
        if view != self._gossip_view:
            interval = VIEW_GOSSIP
        self._gossip_view = view
        self._gossip_interval = interval
        # jittered so a cohort entering a gathering together does not fire
        # in synchronized bursts
        self._gossip_at = now + interval * (
            0.75 + self.rng.uniform(0.0, 0.5))

    def _retrickle(self, now: float) -> None:
        """A changed view or floor goes back to the base gossip pace at
        once, as Trickle resets on an inconsistency."""
        if (self.phase is Phase.GATHERING
                and self._gossip_interval > VIEW_GOSSIP
                and (self.state, self.floor) != self._gossip_view):
            self._arm_gossip(now)

    def _freeze(self, now: float, instance_id: int
                ) -> list[ManagementEnvelope]:
        members = {**self.state.participants, **self.state.joining}
        if len(members) < 2:
            self.stats["too_few"] = self.stats.get("too_few", 0) + 1
            t_ms = self._fresh_deadline(now)
            self.state = replace(self.state, t_ms=t_ms)
            if self.identity.uid in self.state.joining:
                return self._announce(t_ms, now)
            return []
        if len(members) > 0xFFFF:
            return self._restart("sender ids exhausted", now)
        self._frozen = self.state
        joining = self.state.joining
        # participants who are also (re-)joining take a joiner slot: they
        # lack the running seed, so a passive role would strand them
        core = [(u, m.cert) for u, m in self.state.participants.items()
                if u not in joining]
        config = RingConfig(
            self.scope,
            ring_order(core, [(u, m.cert) for u, m in joining.items()]),
            instance_id, self.seed if core else None)
        session = GkaSession(config, self.identity, rng=self.rng)
        out = session.start(now)
        # callers pass floor + 1 or a verified round's newer id
        self.floor = instance_id
        self._session = session
        self.phase = Phase.AGREEING
        self._join_resend_at = None
        return out

    def _settle(self, now: float) -> list[ManagementEnvelope]:
        session = self._session
        if session.phase is GkaPhase.DONE:
            frozen = self._frozen
            members = {**frozen.participants, **frozen.joining}
            self.state = DiscoveryState(participants=members, joining={},
                                        t_ms=T_SENTINEL)
            self.epoch += 1
            self.seed = session.seed
            self.phase = Phase.COMMITTED
            # whoever is still exchanging rounds in this instance missed
            # some of our traffic; keep the session's signed rounds around so
            # we can answer instead of stranding them (completed senders
            # going silent is what turns one lost datagram into a restart)
            self._finished = session
            self._next_help = 0.0
            self._session = None
            self._frozen = None
            self._my_join_t = None
            result = CommitResult(
                scope=self.scope, epoch=self.epoch,
                instance_id=session.config.instance_id, seed=session.seed,
                view=frozen)
            self.events.append(("committed", result))
            # joins satisfied by this commit are done; the rest re-arm
            self._pending = {u: tc for u, tc in self._pending.items()
                             if u not in members}
            self._answered.clear()
            self._arm_response(now)
            return []
        if session.phase is GkaPhase.FAILED:
            return self._restart(session.failure_reason, now)
        return []

    def _restart(self, reason: str, now: float) -> list[ManagementEnvelope]:
        """The agreement failed: count it, forget the view and announce
        this node again."""
        log.debug("%s/%s: agreement failed (%s), rediscovering",
                  self.scope.group, self.scope.channel or "<group>", reason)
        self.stats["agreements_failed"] = \
            self.stats.get("agreements_failed", 0) + 1
        self.events.append(("failed", reason))
        self._session = None
        self._frozen = None
        self._pending.clear()
        self._answered.clear()
        self._response_at = None
        self.state = DiscoveryState()
        self.phase = Phase.IDLE
        # without a gathering, what follows a failure is the caller's
        return self.initiate_join(now) if self.gathers else []
