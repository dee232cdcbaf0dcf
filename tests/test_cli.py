"""End-to-end runs of the command line tools through ``main``."""

from __future__ import annotations

import csv
import io
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import lcmsec
from lcmsec import SessionConfig, parse_config
from lcmsec.cli import main
from lcmsec.identity import PeerCertificate


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def issue(capsys, cadir, group, *, urn_tail="chatter:auto", out=None):
    argv = ["ca", "issue", "--dir", str(cadir),
            "--urn", f"urn:lcmsec:{group}:{urn_tail}"]
    if out:
        argv += ["--out", str(out)]
    return run(capsys, *argv)


# --------------------------------------------------------------- config file


def test_parse_config_roundtrip():
    cfg = parse_config("""
        # node settings
        group = 239.255.76.67:7667
        channels = chatter, status
        mtu = 900          # small for tests
        replay_window = 64
        epoch_grace = 2.5
        ttl = 1
    """)
    assert cfg.group == "239.255.76.67:7667"
    assert cfg.channels == ("chatter", "status")
    assert cfg.mtu == 900 and cfg.replay_window == 64
    assert cfg.epoch_grace == 2.5 and cfg.ttl == 1


def test_parse_config_rejects_junk():
    with pytest.raises(ValueError):
        parse_config("group = g\nbogus = 1")
    with pytest.raises(ValueError):
        parse_config("group = g\ngroup = h")
    with pytest.raises(ValueError):
        parse_config("channels = a")          # group missing
    with pytest.raises(ValueError):
        parse_config("group = g\nreplay_window = 100")   # not a 32-multiple
    with pytest.raises(ValueError):
        SessionConfig(group="239.255.76.67:7667", mtu=40)


# ------------------------------------------------------------------------ ca


def test_ca_init_then_issue_roundtrip(tmp_path, capsys):
    cadir = tmp_path / "authority"
    code, out = run(capsys, "ca", "init", "--dir", str(cadir))
    assert code == 0
    assert (cadir / "root.pem").exists()
    assert str(cadir / "root.pem") in out

    group = "239.255.93.1:7913"
    code, out = issue(capsys, cadir, group, out=tmp_path / "alpha")
    assert code == 0
    cert_path, key_path = out.splitlines()
    cert = PeerCertificate.from_pem_file(cert_path)
    assert cert.uid_for_group(group) == 1
    assert (tmp_path / "alpha.key.pem").read_bytes().startswith(b"-----")

    # :auto keeps counting where the last issue left off
    code, out = issue(capsys, cadir, group, out=tmp_path / "beta")
    assert code == 0
    assert PeerCertificate.from_pem_file(
        out.splitlines()[0]).uid_for_group(group) == 2


def test_ca_init_refuses_second_root(tmp_path, capsys):
    cadir = tmp_path / "authority"
    assert run(capsys, "ca", "init", "--dir", str(cadir))[0] == 0
    assert run(capsys, "ca", "init", "--dir", str(cadir))[0] == 1


def test_ca_issue_rejects_duplicate_uid(tmp_path, capsys):
    cadir = tmp_path / "authority"
    run(capsys, "ca", "init", "--dir", str(cadir))
    group = "239.255.93.2:7913"
    assert issue(capsys, cadir, group, urn_tail="chatter:5",
                 out=tmp_path / "first")[0] == 0
    assert issue(capsys, cadir, group, urn_tail="chatter:5",
                 out=tmp_path / "second")[0] == 1


@pytest.fixture
def issued_node(tmp_path, capsys):
    """CA, one member credential, and a config file, all through the CLI."""
    cadir = tmp_path / "authority"
    run(capsys, "ca", "init", "--dir", str(cadir))
    group = "239.255.93.3:7913"
    code, out = issue(capsys, cadir, group, out=tmp_path / "node")
    assert code == 0
    cert_path, key_path = out.splitlines()
    conf = tmp_path / "node.conf"
    conf.write_text(f"group = {group}\n"
                    f"channels = chatter\n"
                    f"cert = {cert_path}\n"
                    f"key = {key_path}\n"
                    f"roots = {cadir / 'root.pem'}\n")
    return conf


def test_demo_alone_times_out_with_failure(issued_node, capsys):
    code, _ = run(capsys, "demo", "pub", "--config", str(issued_node),
                  "--timeout", "0.5")
    assert code == 1


def test_demo_wrong_group_in_config_fails(issued_node, capsys):
    text = issued_node.read_text().replace("239.255.93.3", "239.255.93.99")
    bad = issued_node.parent / "wrong.conf"
    bad.write_text(text)
    code, _ = run(capsys, "demo", "pub", "--config", str(bad),
                  "--timeout", "0.5")
    assert code == 1


def test_bench_discovery_emits_csv(capsys):
    code, out = run(capsys, "bench-discovery", "--nodes", "2", "--seed", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["nodes"] == "2" and row["converged"] == "1"
    assert row["keys_equal"] == "1"
    assert int(row["joins"]) > 0 and int(row["join_responses"]) > 0
    assert float(row["virtual_s"]) < 30


def test_bench_latency_sim_emits_csv(capsys):
    code, out = run(capsys, "bench-latency", "--sim",
                    "--sizes", "100,3000", "--count", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["mode"] for r in rows] == ["plain", "secure"] * 2
    for row in rows:
        assert row["ok"] == "3" and row["lost"] == "0"
    # crossing the mtu splits the secure message into several datagrams
    assert int(rows[1]["datagrams_per_msg"]) == 1
    assert int(rows[3]["datagrams_per_msg"]) > 1
    assert rows[1]["rtt_ratio_vs_plain_p50"] != ""
    assert rows[0]["rtt_ratio_vs_plain_p50"] == ""


def test_bench_latency_source_needs_config_or_sim(capsys):
    assert run(capsys, "bench-latency")[0] == 2


def test_bench_latency_no_simulated_reflector(capsys):
    assert run(capsys, "bench-latency", "--role", "reflector", "--sim")[0] == 2


def test_demo_pub_line_reaches_sub_over_udp(tmp_path, capsys):
    # the success path end to end: two processes, real loopback multicast
    cadir = tmp_path / "authority"
    run(capsys, "ca", "init", "--dir", str(cadir))
    pid = os.getpid()
    group = f"239.255.97.{pid % 250 + 1}:{7920 + pid % 64}"
    confs = {}
    for who in ("pub", "sub"):
        code, out = issue(capsys, cadir, group, out=tmp_path / who)
        assert code == 0
        cert_path, key_path = out.splitlines()
        confs[who] = tmp_path / f"{who}.conf"
        confs[who].write_text(f"group = {group}\n"
                              f"channels = chatter\n"
                              f"cert = {cert_path}\n"
                              f"key = {key_path}\n"
                              f"roots = {cadir / 'root.pem'}\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(lcmsec.__file__).resolve().parent.parent))

    logs = {role: (tmp_path / f"{role}.log").open("w")
            for role in ("pub", "sub")}

    def demo(role, **kw):
        return subprocess.Popen(
            [sys.executable, "-m", "lcmsec.cli", "demo", role,
             "--config", str(confs[role]), "--timeout", "30"],
            env=env, text=True, stderr=logs[role], **kw)

    sub = demo("sub", stdout=subprocess.PIPE)
    pub = demo("pub", stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
    printed = queue.SimpleQueue()
    threading.Thread(target=lambda: [printed.put(line)
                                     for line in sub.stdout],
                     daemon=True).start()
    try:
        # lines published before the subscriber holds keys are lost, so
        # keep sending until one arrives
        sent, heard = [], None
        deadline = time.monotonic() + 60
        while heard is None and time.monotonic() < deadline:
            sent.append(f"hello {len(sent)}")
            pub.stdin.write(sent[-1] + "\n")
            pub.stdin.flush()
            try:
                heard = printed.get(timeout=0.5).rstrip("\n")
            except queue.Empty:
                pass
        assert heard in {f"chatter: {line}" for line in sent}, (
            heard, (tmp_path / "sub.log").read_text(),
            (tmp_path / "pub.log").read_text())
        pub.stdin.close()
        assert pub.wait(timeout=15) == 0
    finally:
        for proc in (pub, sub):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
        sub.stdout.close()
        for log in logs.values():
            log.close()
