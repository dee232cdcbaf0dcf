"""Operator tools: CA management, pub/sub demos, the two benches, and the
key=value config file they read.

One output rule everywhere: machine-readable CSV on stdout, human logs on
stderr, nonzero exit status on failure. Every command works non-interactively
so the whole surface is scriptable from CI.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import logging
import math
import queue
import random
import select
import struct
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric import ec

from . import wire
from .errors import LcmsecError
from .gka import LocalIdentity
from .identity import (CertificateAuthority, DomainUrn, PeerCertificate,
                       load_private_key, load_root_store, save_certificate,
                       save_private_key)
from .node import LcmsecNode
from .session import DEFAULT_MTU
from .transport import SimNet, SimRunner, UdpEndpoint, UdpRunner

log = logging.getLogger("lcmsec.cli")

#: fixed channels of the echo bench; the reflector turns ping into pong
PING = "bench/ping"
PONG = "bench/pong"

_PLAIN_MAGIC = struct.pack(">I", wire.MAGIC_PLAIN)


# -------------------------------------------------------------------- config


@dataclass(frozen=True)
class SessionConfig:
    """Static node configuration, parseable from key=value text."""

    group: str
    channels: tuple[str, ...] = ()
    cert: str | None = None
    key: str | None = None
    roots: str | None = None
    mtu: int = DEFAULT_MTU
    ttl: int = 0

    def __post_init__(self):
        if not self.group:
            raise ValueError("group is required")
        if self.mtu < 64:
            raise ValueError(f"mtu {self.mtu} is below the 64-byte floor")


_CONFIG_FIELDS = {
    "group": str, "channels": str, "cert": str, "key": str, "roots": str,
    "mtu": int, "ttl": int,
}


def parse_config(text: str) -> SessionConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected key = value")
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _CONFIG_FIELDS[key](value)
    if "channels" in values:
        names = [c.strip() for c in values["channels"].split(",") if c.strip()]
        values["channels"] = tuple(names)
    if "group" not in values:
        raise ValueError("group is required")
    return SessionConfig(**values)


def load_config(path) -> SessionConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# ------------------------------------------------------------------------ ca


def _parse_urn_arg(ca: CertificateAuthority, text: str) -> DomainUrn:
    """URN from the command line; a trailing ``:auto`` takes the next id."""
    if text.endswith(":auto"):
        probe = DomainUrn.parse(text[:-len("auto")] + "0")
        return DomainUrn(group=probe.group, channel=probe.channel,
                         id=ca.next_id(probe.group))
    return DomainUrn.parse(text)


def cmd_ca_init(args) -> int:
    directory = Path(args.dir)
    if (directory / "root.pem").exists():
        log.error("%s already holds a root certificate", directory)
        return 1
    CertificateAuthority.create(directory)
    log.info("new root authority in %s", directory)
    print(directory / "root.pem")
    return 0


def cmd_ca_issue(args) -> int:
    ca = CertificateAuthority.load(args.dir)
    urns = [_parse_urn_arg(ca, u) for u in args.urn]
    key = ec.generate_private_key(ec.SECP256R1())
    name = args.name or f"node-{urns[0].id}"
    cert = ca.issue(urns, key.public_key(), common_name=name)
    prefix = Path(args.out or name)
    save_private_key(key, prefix.with_suffix(".key.pem"))
    save_certificate(cert, prefix.with_suffix(".cert.pem"))
    for urn in urns:
        log.info("issued %s", urn.serialize())
    print(prefix.with_suffix(".cert.pem"))
    print(prefix.with_suffix(".key.pem"))
    return 0


# ---------------------------------------------------------------- node setup


def _load_identity(cfg: SessionConfig) -> tuple[LocalIdentity, list]:
    if not (cfg.cert and cfg.key and cfg.roots):
        raise LcmsecError("config must set cert, key, and roots")
    cert = PeerCertificate.from_pem_file(cfg.cert)
    key = load_private_key(cfg.key)
    roots = load_root_store(cfg.roots)
    uid = cert.uid_for_group(cfg.group)
    if uid is None:
        raise LcmsecError(f"certificate holds no unique id for {cfg.group}")
    return LocalIdentity(uid=uid, cert=cert, key=key), roots


def _build_node(cfg: SessionConfig, channels,
                node_cls=LcmsecNode) -> tuple[LcmsecNode, UdpEndpoint]:
    ident, roots = _load_identity(cfg)
    node = node_cls(ident, roots, cfg.group, channels, mtu=cfg.mtu)
    return node, UdpEndpoint(cfg.group, ttl=cfg.ttl)


class _PhaseWatcher:
    """Logs discovery phase and epoch transitions as they happen."""

    def __init__(self, node: LcmsecNode):
        self.node = node
        self._last: dict[str, tuple] = {}

    def poll(self):
        for channel, drv in self.node.drivers.items():
            cur = (drv.phase.name, drv.epoch)
            if self._last.get(channel) != cur:
                self._last[channel] = cur
                log.info("%s: %s, epoch %d", channel or "group",
                         cur[0].lower(), cur[1])


# ---------------------------------------------------------------------- demo


def _wait_ready(runner: UdpRunner, node: LcmsecNode, timeout: float,
                watcher: _PhaseWatcher | None = None) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if runner.pump(0.2, until=lambda: node.ready):
            return True
        if watcher:
            watcher.poll()
    return node.ready


def cmd_demo(args) -> int:
    cfg = load_config(args.config)
    channels = cfg.channels or ("chatter",)
    node, ep = _build_node(cfg, channels)
    runner = UdpRunner(node, ep)
    watcher = _PhaseWatcher(node)
    try:
        runner.start()
        log.info("joining %s as uid %d", cfg.group, node.identity.uid)
        if not _wait_ready(runner, node, args.timeout, watcher):
            log.error("no keys after %.1fs of discovery, giving up",
                      args.timeout)
            return 1
        watcher.poll()
        if args.role == "sub":
            return _demo_sub(runner, node, watcher)
        return _demo_pub(runner, node, watcher, args.channel or channels[0])
    finally:
        ep.close()


def _demo_sub(runner: UdpRunner, node: LcmsecNode,
              watcher: _PhaseWatcher) -> int:
    log.info("listening; ^C to stop")
    try:
        while True:
            runner.pump(0.2)
            watcher.poll()
            for channel, payload in node.take_deliveries():
                text = payload.decode("utf-8", errors="replace")
                print(f"{channel}: {text}", flush=True)
    except KeyboardInterrupt:
        return 0


def _stdin_lines() -> queue.SimpleQueue:
    """Lines of stdin as a reader thread gets them; None marks EOF.

    The thread keeps the node's loop from blocking on the terminal, and
    every line already read is seen, not only the first of a buffered
    batch.
    """
    lines: queue.SimpleQueue = queue.SimpleQueue()

    def read():
        for line in sys.stdin:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=read, name="stdin", daemon=True).start()
    return lines


def _demo_pub(runner: UdpRunner, node: LcmsecNode, watcher,
              channel: str) -> int:
    log.info("publishing stdin lines on %r; EOF to stop", channel)
    lines = _stdin_lines()
    try:
        while True:
            if runner.pump(0.05, until=lambda: not lines.empty()):
                line = lines.get()
                if line is None:
                    break
                text = line.rstrip("\n")
                if text:
                    try:
                        runner.publish(channel, text.encode())
                    except LcmsecError as exc:
                        log.warning("publish failed: %s", exc)
            node.take_deliveries()
            watcher.poll()
    except KeyboardInterrupt:
        pass
    runner.pump(0.3)        # let the last datagrams drain
    return 0


# ------------------------------------------------------------- latency bench


class PingReflector(LcmsecNode):
    """Node answering ping with pong at both protocol layers.

    Plaintext ping datagrams are echoed verbatim apart from the channel
    swap; secure deliveries on the ping channel are re-published on pong.
    """

    def handle_datagram(self, data, now):
        if data[:4] == _PLAIN_MAGIC:
            try:
                name, seqno, payload = wire.decode_plain_lcm(data)
            except LcmsecError:
                return []
            if name == PING:
                return [wire.encode_plain_lcm(PONG, seqno, payload)]
            return []
        out = super().handle_datagram(data, now)
        for channel, payload in self.take_deliveries():
            if channel == PING:
                try:
                    out += self.publish(PONG, payload, now)
                except LcmsecError as exc:
                    log.warning("echo dropped: %s", exc)
        return out


class PongRecorder(LcmsecNode):
    """Node recording pong arrival times by message tag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.secure_pongs: dict[int, float] = {}
        self.plain_parts: dict[int, dict[int, float]] = {}

    def handle_datagram(self, data, now):
        if data[:4] == _PLAIN_MAGIC:
            try:
                name, seqno, _ = wire.decode_plain_lcm(data)
            except LcmsecError:
                return []
            if name == PONG:
                # seqno carries message * 1000 + part
                self.plain_parts.setdefault(seqno // 1000, {})[
                    seqno % 1000] = now
            return []
        out = super().handle_datagram(data, now)
        for channel, payload in self.take_deliveries():
            if channel == PONG and len(payload) >= 8:
                tag = struct.unpack_from(">Q", payload)[0]
                self.secure_pongs.setdefault(tag, now)
        return out


@contextlib.contextmanager
def _gc_paused():
    """Collector off while timing, the usual microbenchmark hygiene."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _quantiles(xs: list[float]) -> tuple:
    if not xs:
        return ("", "", "")
    s = sorted(xs)

    def q(p):
        return round(s[min(len(s) - 1, round(p * (len(s) - 1)))], 4)

    return q(0.50), q(0.90), q(0.99)


def _plain_chunk_limit(mtu: int) -> int:
    return mtu - (8 + len(PING) + 1)


LATENCY_FIELDS = ["transport", "mode", "size_bytes", "count", "ok", "lost",
                  "datagrams_per_msg", "p50_ms", "p90_ms", "p99_ms",
                  "rtt_ratio_vs_plain_p50"]


def _finish_rows(plain: dict, secure: dict) -> list[dict]:
    if plain["p50_ms"] and secure["p50_ms"]:
        secure["rtt_ratio_vs_plain_p50"] = round(
            secure["p50_ms"] / max(plain["p50_ms"], 1e-9), 3)
    return [plain, secure]


def _latency_row(transport, mode, size, count, lost, datagrams, wall) -> dict:
    p50, p90, p99 = _quantiles(wall)
    return {"transport": transport, "mode": mode, "size_bytes": size,
            "count": count, "ok": count - lost, "lost": lost,
            "datagrams_per_msg": datagrams, "p50_ms": p50, "p90_ms": p90,
            "p99_ms": p99, "rtt_ratio_vs_plain_p50": ""}


# The echo source's timing loop is the measuring stick of acceptance
# criterion 09, like perfbench's own loop, so it stays apart from
# UdpRunner. The plaintext echo is short enough that the source's work
# between sending a ping and blocking for the pong decides whether it
# sleeps before the pong arrives: on a 2-vCPU VM, the same samples driven
# through a drain-then-wait UdpRunner.pump read 100 B secure/plain about
# 2.1 against 1.8 here, with the secure echo no slower. The loop changes
# only together with that criterion's baseline.


def _drain_udp(src, ep):
    """Consume everything already queued on the socket, without blocking.

    Interleaving this with burst sends keeps our own looped-back copies
    from crowding the receive buffer and picks up early echoes.
    """
    while True:
        readable, _, _ = select.select([ep.sock], [], [], 0)
        if not readable:
            return
        data = ep.recv(timeout=0.001)
        if data is None:
            return
        for out in src.handle_datagram(data, time.time()):
            ep.send(out)


def _pump_udp(node, ep, until, deadline) -> bool:
    """Drive one node over UDP until a condition holds or time runs out."""
    while True:
        if until():
            return True
        now = time.time()
        if now >= deadline:
            return False
        data = ep.recv(timeout=0.02)
        now = time.time()
        if data is not None:
            for out in node.handle_datagram(data, now):
                ep.send(out)
        wake = node.next_wakeup()
        if wake is not None and now >= wake:
            for out in node.on_timer(now):
                ep.send(out)


def bench_latency_udp_source(cfg: SessionConfig, sizes, count,
                             echo_timeout=1.0,
                             ready_timeout=30.0) -> list[dict]:
    """Echo bench over real multicast; a reflector must be running."""
    src, ep = _build_node(cfg, (PING, PONG), PongRecorder)
    runner = UdpRunner(src, ep)
    try:
        runner.start()
        if not runner.pump(ready_timeout, until=lambda: src.ready):
            raise LcmsecError("discovery with the reflector did not finish")
        log.info("paired with reflector, measuring")
        rows = []
        with _gc_paused():
            # a few throwaway echoes load every code path before timing
            _measure_udp(src, ep, max(8, sizes[0]), 3, cfg.mtu, echo_timeout)
            for size in sizes:
                rows.extend(_measure_udp(src, ep, size, count, cfg.mtu,
                                         echo_timeout))
        return rows
    finally:
        ep.close()


def _measure_udp(src, ep, size, count, mtu, echo_timeout) -> list[dict]:
    if size < 8:
        raise ValueError("bench payloads need at least 8 tag bytes")
    chunk = _plain_chunk_limit(mtu)
    parts = max(1, math.ceil(size / chunk))
    # the two modes alternate message by message so they sample the same
    # machine load; back-to-back batches would compare different weather
    wall_p, lost_p = [], 0
    wall_s, lost_s, datagrams = [], 0, 0
    for i in range(count):
        w0 = time.perf_counter()
        for part in range(parts):
            data = bytes(min(chunk, size - part * chunk))
            ep.send(wire.encode_plain_lcm(PING, i * 1000 + part, data))
            _drain_udp(src, ep)
        if _pump_udp(src, ep,
                     lambda: len(src.plain_parts.get(i, {})) >= parts,
                     time.time() + echo_timeout):
            wall_p.append((time.perf_counter() - w0) * 1000)
        else:
            lost_p += 1
        # yield so the reflector finishes its tail work (its own looped-back
        # copy) before the next sample's clock starts
        time.sleep(0.0005)

        payload = struct.pack(">Q", i) + bytes(size - 8)
        w0 = time.perf_counter()
        outs = src.publish(PING, payload, time.time())
        datagrams = len(outs)
        for dg in outs:
            ep.send(dg)
            _drain_udp(src, ep)
        if _pump_udp(src, ep, lambda: i in src.secure_pongs,
                     time.time() + echo_timeout):
            wall_s.append((time.perf_counter() - w0) * 1000)
        else:
            lost_s += 1
        time.sleep(0.0005)
    plain_row = _latency_row("udp", "plain", size, count, lost_p, parts,
                             wall_p)
    secure_row = _latency_row("udp", "secure", size, count, lost_s,
                              datagrams, wall_s)
    src.secure_pongs.clear()
    src.plain_parts.clear()
    return _finish_rows(plain_row, secure_row)


def run_latency_reflector(cfg: SessionConfig, should_stop=None) -> int:
    """Reflector side of the echo bench; runs until stopped."""
    node, ep = _build_node(cfg, (PING, PONG), PingReflector)
    runner = UdpRunner(node, ep)
    try:
        runner.start()
        log.info("reflector on %s, uid %d; ^C to stop", cfg.group,
                 node.identity.uid)
        while should_stop is None or not should_stop():
            runner.pump(0.25)
    except KeyboardInterrupt:
        pass
    finally:
        ep.close()
    return 0


def cmd_bench_latency(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if args.role == "reflector":
        return run_latency_reflector(load_config(args.config))
    rows = bench_latency_udp_source(load_config(args.config), sizes,
                                    args.count, echo_timeout=args.timeout)
    _emit_csv(rows, LATENCY_FIELDS, args.csv)
    return 0 if all(r["ok"] > 0 for r in rows) else 1


# ----------------------------------------------------------- discovery bench


DISCOVERY_FIELDS = ["nodes", "seed", "mu_ms", "sigma_ms", "loss_pct",
                    "joins", "join_responses", "gka_rounds", "restarts",
                    "converged", "keys_equal", "virtual_s"]


def _bench_identity(ca, group, uid):
    key = ec.generate_private_key(ec.SECP256R1())
    cert = ca.issue([DomainUrn(group=group, channel="*", id=uid)],
                    key.public_key(), common_name=f"bench-{uid}")
    return LocalIdentity(uid=uid, cert=PeerCertificate(cert), key=key)


def bench_discovery_run(n, seed, mu=0.025, sigma=0.005, loss=0.10,
                        t_max=30.0) -> dict:
    """Cold-start N nodes on a lossy simulated fabric and count messages.

    Every node runs the group agreement and derives the channel's seed
    from it, since every node lists the channel; the row records whether
    all of them ended with identical seeds.
    ``gka_rounds`` counts round-1 and round-2 datagrams sent, ``restarts``
    the failed agreements summed over every node and scope.
    """
    with tempfile.TemporaryDirectory() as tmp:
        ca = CertificateAuthority.create(Path(tmp))
        roots = [ca.cert]
        group = "239.255.99.251:7999"
        net = SimNet(seed=seed, loss=loss, delay_mu=mu, delay_sigma=sigma)
        runner = SimRunner(net)
        counts: Counter = Counter()

        def tap(_, datagram):
            if wire.peek_magic(datagram) == wire.MAGIC_MANAGEMENT:
                counts[wire.decode_management(datagram).kind] += 1

        net.taps.append(tap)
        nodes = []
        for uid in range(1, n + 1):
            node = LcmsecNode(_bench_identity(ca, group, uid), roots, group,
                              ("bench",), random.Random(seed * 7919 + uid))
            runner.add(node)
            nodes.append(node)
        runner.start_all()
        converged = runner.run_while(
            lambda: not all(nd.ready for nd in nodes), t_max)
        keys_equal = converged and (
            len({nd.group_seed for nd in nodes}) == 1
            and len({nd.channel_seed("bench") for nd in nodes}) == 1)
        return {"nodes": n, "seed": seed, "mu_ms": mu * 1000,
                "sigma_ms": sigma * 1000, "loss_pct": round(loss * 100, 1),
                "joins": counts[wire.MsgKind.JOIN],
                "join_responses": counts[wire.MsgKind.JOIN_RESPONSE],
                "gka_rounds": (counts[wire.MsgKind.GKA_ROUND1]
                               + counts[wire.MsgKind.GKA_ROUND2]),
                "restarts": sum(d.stats.get("agreements_failed", 0)
                                for nd in nodes for d in nd.drivers.values()),
                "converged": int(converged), "keys_equal": int(keys_equal),
                "virtual_s": round(net.now, 3)}


def cmd_bench_discovery(args) -> int:
    rows = []
    for n in [int(x) for x in args.nodes.split(",") if x.strip()]:
        row = bench_discovery_run(n, args.seed, mu=args.mu_ms / 1000,
                                  sigma=args.sigma_ms / 1000, loss=args.loss)
        log.info("N=%d: %d joins, %d responses, converged=%d", n,
                 row["joins"], row["join_responses"], row["converged"])
        rows.append(row)
    _emit_csv(rows, DISCOVERY_FIELDS, args.csv)
    return 0 if all(r["converged"] and r["keys_equal"] for r in rows) else 2


# ---------------------------------------------------------------------- main


def _emit_csv(rows, fieldnames, dest: str):
    out = sys.stdout if dest == "-" else open(dest, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lcmsec", description="secure multicast pub/sub tools")
    p.add_argument("-v", "--verbose", action="count", default=0)
    sub = p.add_subparsers(dest="command", required=True)

    ca = sub.add_parser("ca", help="root and member certificates")
    casub = ca.add_subparsers(dest="ca_command", required=True)
    init = casub.add_parser("init", help="create a root authority")
    init.add_argument("--dir", default="lcmsec-ca")
    init.set_defaults(func=cmd_ca_init)
    issue = casub.add_parser("issue", help="issue a member certificate")
    issue.add_argument("--dir", default="lcmsec-ca")
    issue.add_argument("--urn", action="append", required=True,
                       help="urn:lcmsec:<group>:<channel>:<id|auto>; "
                            "repeatable")
    issue.add_argument("--name", help="certificate common name")
    issue.add_argument("--out", help="output file prefix")
    issue.set_defaults(func=cmd_ca_issue)

    demo = sub.add_parser("demo", help="line-oriented pub/sub demo")
    demo.add_argument("role", choices=("pub", "sub"))
    demo.add_argument("--config", required=True)
    demo.add_argument("--channel", help="publish channel (default: first "
                                        "configured)")
    demo.add_argument("--timeout", type=float, default=15.0,
                      help="seconds to wait for discovery")
    demo.set_defaults(func=cmd_demo)

    bl = sub.add_parser("bench-latency", help="echo round-trip bench")
    bl.add_argument("--role", choices=("source", "reflector"),
                    default="source")
    bl.add_argument("--config", required=True)
    bl.add_argument("--sizes", default="100,1000,10000,100000",
                    help="comma-separated payload sizes in bytes")
    bl.add_argument("--count", type=int, default=100,
                    help="messages per size")
    bl.add_argument("--timeout", type=float, default=1.0,
                    help="per-echo wait before counting a loss")
    bl.add_argument("--csv", default="-", help="CSV destination (- stdout)")
    bl.set_defaults(func=cmd_bench_latency)

    bd = sub.add_parser("bench-discovery",
                        help="message counts for simulated cold starts")
    bd.add_argument("--nodes", default="2,4,8,16,32",
                    help="comma-separated group sizes")
    bd.add_argument("--seed", type=int, default=1)
    bd.add_argument("--mu-ms", type=float, default=25.0)
    bd.add_argument("--sigma-ms", type=float, default=5.0)
    bd.add_argument("--loss", type=float, default=0.10)
    bd.add_argument("--csv", default="-", help="CSV destination (- stdout)")
    bd.set_defaults(func=cmd_bench_discovery)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (LcmsecError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
