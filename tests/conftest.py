from __future__ import annotations

import re
import time

import pytest
from cryptography.hazmat.primitives.asymmetric import ec

from lcmsec.identity import CertificateAuthority, DomainUrn, PeerCertificate

GROUP = "239.255.76.67:7667"

#: one-line behavior statements for the release checklist; each is proven by
#: the matching test_criterion_NN_* test in test_acceptance.py
ACCEPTANCE = {
    1: "securing a message costs exactly 18 bytes of datagram overhead",
    2: "single-bit corruption anywhere never reaches a subscriber",
    3: "agreed keys equal the scalar oracle; joins keep one shared key",
    4: "a join transmits from the joiners and three incumbents only",
    5: "replayed traffic from finished agreements cannot stall a join",
    6: "the replay filter equals a remember-everything oracle",
    7: "lossy cold starts converge to identical keys inside the bound",
    8: "view ordering is total; gossip merges ignore delivery order",
    9: "secure echo latency stays within 2x of the plaintext baseline",
    10: "a certificate without the group grant is locked out entirely",
}

_CRITERION_RE = re.compile(r"test_criterion_(\d{2})")
_RESULTS: dict[int, list] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.match(report.nodeid.split("::")[-1])
    if not match:
        return
    if report.when == "call" or report.failed:
        detail = dict(report.user_properties).get("detail", "")
        _RESULTS.setdefault(int(match.group(1)), []).append(
            (report.outcome, detail))


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        runs = _RESULTS[num]
        verdict = "PASS" if all(o == "passed" for o, _ in runs) else "FAIL"
        line = f"criterion {num:02d} {verdict}  {ACCEPTANCE.get(num, '')}"
        details = "; ".join(d for _, d in runs if d)
        if details:
            line += f"  [{details}]"
        terminalreporter.write_line(line)


#: one sleep this long fails a test not marked slow; certificate expiry and
#: every protocol timer are reached by advancing ``now`` instead
SLEEP_LIMIT = 0.1


@pytest.fixture(autouse=True)
def no_long_sleep(request, monkeypatch):
    if request.node.get_closest_marker("slow"):
        return
    real = time.sleep

    def guarded(seconds):
        if seconds >= SLEEP_LIMIT:
            pytest.fail(f"time.sleep({seconds}) in a test not marked slow; "
                        f"advance the node's now instead")
        real(seconds)

    monkeypatch.setattr(time, "sleep", guarded)


@pytest.fixture(scope="session")
def ca(tmp_path_factory):
    return CertificateAuthority.create(tmp_path_factory.mktemp("ca"))


@pytest.fixture(scope="session")
def roots(ca):
    return [ca.cert]


@pytest.fixture(scope="session")
def member_factory(ca):
    """Issues one member credential: (PeerCertificate, private key),
    valid for ``days`` from now."""

    def make(group: str = GROUP, channels=("*",), uid: int | None = None,
             days: float = 365):
        key = ec.generate_private_key(ec.SECP256R1())
        if uid is None:
            uid = ca.next_id(group)
        urns = [DomainUrn(group=group, channel=c, id=uid) for c in channels]
        cert = ca.issue(urns, key.public_key(), common_name=f"node-{uid}",
                        validity_days=days)
        return PeerCertificate(cert), key

    return make
