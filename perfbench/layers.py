"""Per-layer wrappers for the traced run, and the metrics built from them.

Each wrapper is installed where the callers look the name up: a function
that ``session.py`` imported by name is replaced in ``lcmsec.session``, one
that ``gka.py`` reaches as ``crypto.verify`` in ``lcmsec.crypto``, and
methods on their class. Everything is restored when the run ends. The
spans come from the benchmark's files only; the program is not edited.
"""

from __future__ import annotations

import time

import lcmsec.crypto
import lcmsec.discovery
import lcmsec.session
import lcmsec.wire
from lcmsec.discovery import DiscoveryDriver
from lcmsec.ecgroup import P256
from lcmsec.gka import GkaSession
from lcmsec.node import LcmsecNode
from lcmsec.session import ReplayWindow, Session
from lcmsec.transport import SimRunner, UdpEndpoint
from lcmsec.wire import ReassemblyBuffer

import udp_paths
from spans import LayerStats, Tracer, uncovered_share

#: (owner, attribute, span name); the owner is where callers look it up
TARGETS = (
    (UdpEndpoint, "send", "transport.udp.send"),
    (UdpEndpoint, "recv", "transport.udp.recv"),
    (udp_paths, "wait_readable", "transport.udp.wait"),
    (SimRunner, "run_until", "transport.sim.run_until"),
    (LcmsecNode, "handle_datagram", "node.handle_datagram"),
    (LcmsecNode, "on_timer", "node.on_timer"),
    (LcmsecNode, "next_wakeup", "node.next_wakeup"),
    (LcmsecNode, "publish", "node.publish"),
    (Session, "publish", "session.publish"),
    (Session, "receive", "session.receive"),
    (ReplayWindow, "check", "session.replay.check"),
    (lcmsec.session, "aead_seal", "crypto.aead_seal"),
    (lcmsec.session, "aead_open", "crypto.aead_open"),
    (lcmsec.session, "ctr_crypt", "crypto.ctr_crypt"),
    (lcmsec.wire, "fragment", "wire.fragment"),
    (ReassemblyBuffer, "add", "wire.reassembly.add"),
    (lcmsec.wire, "encode_management", "wire.management_encode"),
    (lcmsec.wire, "decode_management", "wire.management_decode"),
    (lcmsec.crypto, "sign", "crypto.sign"),
    (lcmsec.crypto, "verify", "crypto.verify"),
    (lcmsec.discovery, "verify_chain", "identity.verify_chain"),
    (DiscoveryDriver, "handle", "discovery.handle"),
    (DiscoveryDriver, "on_timer", "discovery.on_timer"),
    (DiscoveryDriver, "take_events", "discovery.take_events"),
    (P256, "exp", "ecgroup.exp"),
    (GkaSession, "start", "gka.start"),
    (GkaSession, "handle", "gka.handle"),
)

SESSION_DROPS = ("own_echo", "replayed", "auth_failure", "garbled_name",
                 "bad_fragment", "unsubscribed", "not_data", "truncated",
                 "bad_magic", "no_group_key", "no_channel_key")


class Observations:
    """What the wrappers see besides time: IV reuse, signatures, slots."""

    def __init__(self):
        self.sealed: set[tuple[bytes, bytes]] = set()
        self.iv_reuse = 0
        self.signatures: set[bytes] = set()
        self.slots_max = 0
        self.discovery_failed = 0


def install(tracer: Tracer) -> tuple[Observations, list]:
    """Wrap every target; returns the observations and an undo list."""
    seen = Observations()
    undo = []
    for owner, attr, name in TARGETS:
        own = attr in vars(owner)
        undo.append((owner, attr, vars(owner).get(attr), own))
        traced = tracer.wrap(getattr(owner, attr), name)
        observer = _OBSERVERS.get(name)
        setattr(owner, attr,
                traced if observer is None else observer(traced, seen))
    return seen, undo


def uninstall(undo) -> None:
    for owner, attr, original, own in reversed(undo):
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def _observe_seal(traced, seen: Observations):
    def seal(material, iv, plaintext, aad, *args, **kwargs):
        key = (material.key, iv)
        if key in seen.sealed:
            seen.iv_reuse += 1
        else:
            seen.sealed.add(key)
        return traced(material, iv, plaintext, aad, *args, **kwargs)
    return seal


def _observe_verify(traced, seen: Observations):
    def verify(message, signature, public_key):
        seen.signatures.add(signature)
        return traced(message, signature, public_key)
    return verify


def _observe_add(traced, seen: Observations):
    def add(buffer, fragment, now):
        try:
            return traced(buffer, fragment, now)
        finally:
            seen.slots_max = max(seen.slots_max, len(buffer))
    return add


def _observe_events(traced, seen: Observations):
    def take_events(driver):
        events = traced(driver)
        seen.discovery_failed += sum(1 for e in events if e[0] == "failed")
        return events
    return take_events


_OBSERVERS = {
    "crypto.aead_seal": _observe_seal,
    "crypto.verify": _observe_verify,
    "wire.reassembly.add": _observe_add,
    "discovery.take_events": _observe_events,
}


#: no-op calls per timing of the span overhead
OVERHEAD_CALLS = 200_000


def span_overhead_ns() -> float:
    """Cost a span adds to one call, from a traced and a bare no-op."""
    def noop():
        return None

    clock = time.perf_counter_ns
    best = float("inf")
    for _ in range(3):
        traced = Tracer().wrap(noop, "probe")
        t0 = clock()
        for _ in range(OVERHEAD_CALLS):
            noop()
        t1 = clock()
        for _ in range(OVERHEAD_CALLS):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / OVERHEAD_CALLS)
    return best


# ------------------------------------------------------------------- metrics


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, seen: Observations, counts: dict,
                  wall_ns: tuple[int, int], overhead_ns: float
                  ) -> tuple[dict, list]:
    """Every per_layer metric from one traced run, and the spans it never
    called.

    A layer the workload never calls reports 0 for its metrics.

    ``.us`` is mean self time per call; data-path layers count only calls
    inside an operation, so the UDP set-up's timer waits stay out. Data-path
    counts are per legit message; control-plane counts are per convergence
    event (a cold start or a join, or one set-up over UDP).
    """
    st = LayerStats(tracer)

    def data(name):         # data-path spans: inside a message or event
        return st.mean_self_us(name, in_ops=True)

    msgs = counts["messages"]
    events = counts["events"]
    data_in = counts["data_in"]
    sim_events = (st.calls_under("node.handle_datagram",
                                 "transport.sim.run_until")
                  + st.calls_under("node.on_timer", "transport.sim.run_until"))
    sim_polls = st.calls_under("node.next_wakeup", "transport.sim.run_until")
    t0, t1 = wall_ns
    m = {
        "transport.udp.send.us": data("transport.udp.send"),
        "transport.udp.recv.us": data("transport.udp.recv"),
        "transport.udp.recv.wait_us": data("transport.udp.wait"),
        "transport.udp.datagrams_per_msg": _ratio(counts["datagrams"], msgs),
        "transport.plain_rtt_us": counts["plain_rtt_us"] or 0.0,
        "node.handle_datagram.us": data("node.handle_datagram"),
        "session.publish.us": data("session.publish"),
        "session.receive.us": data("session.receive"),
        "session.replay.check.us": data("session.replay.check"),
        "crypto.aead_seal.us": data("crypto.aead_seal"),
        "crypto.aead_open.us": data("crypto.aead_open"),
        "crypto.ctr_crypt.us": data("crypto.ctr_crypt"),
        "crypto.ctr_crypt.calls_per_msg": _ratio(
            st.count("crypto.ctr_crypt"), msgs),
        "wire.fragment.us": data("wire.fragment"),
        "wire.reassembly.add.us": data("wire.reassembly.add"),
        "wire.reassembly.slots_max": seen.slots_max,
        "session.useful_ratio": _ratio(counts["delivered"], data_in),
        "crypto.aead_open.fail_ratio": _ratio(
            st.failed("crypto.aead_open"), st.count("crypto.aead_open")),
        **{f"session.drop.{r}": _ratio(counts["drops"].get(r, 0), data_in)
           for r in SESSION_DROPS},
        "crypto.verify.calls": _ratio(st.count("crypto.verify"), events),
        "crypto.verify.us": st.mean_self_us("crypto.verify"),
        "crypto.verify.calls_per_distinct": _ratio(
            st.count("crypto.verify"), len(seen.signatures)),
        "identity.verify_chain.calls": _ratio(
            st.count("identity.verify_chain"), events),
        "identity.verify_chain.us": st.mean_self_us("identity.verify_chain"),
        "wire.management_codec.us": st.mean_self_us(
            "wire.management_encode", "wire.management_decode"),
        "discovery.handle.us": st.mean_self_us("discovery.handle"),
        "discovery.on_timer.us": st.mean_self_us("discovery.on_timer"),
        "ecgroup.exp.calls": _ratio(st.count("ecgroup.exp"), events),
        "ecgroup.exp.us": st.mean_self_us("ecgroup.exp"),
        "gka.handle.us": st.mean_self_us("gka.handle"),
        "crypto.sign.calls": _ratio(st.count("crypto.sign"), events),
        "gka.sessions": _ratio(st.count("gka.start"), events),
        "discovery.failed": _ratio(seen.discovery_failed, events),
        "crypto.iv_reuse": _ratio(seen.iv_reuse, events),
        "session.undelivered_share": _ratio(counts["pairs_failed"],
                                            counts["pairs"]),
        "transport.sim.self_s": _ratio(st.self_s("transport.sim.run_until"),
                                       events),
        "transport.sim.events": _ratio(sim_events, events),
        "transport.sim.polls_per_event": _ratio(sim_polls, sim_events),
        "node.next_wakeup.us": st.mean_self_us("node.next_wakeup"),
        "node.on_timer.us": st.mean_self_us("node.on_timer"),
        "trace.overhead_share": len(tracer) * overhead_ns / (t1 - t0),
        "trace.uncovered_share": uncovered_share(
            tracer.start, tracer.end, tracer.parent, t0, t1),
    }
    not_called = [name for _, _, name in TARGETS if not st.count(name)]
    return m, not_called
