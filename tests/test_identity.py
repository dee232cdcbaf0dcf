"""URN grammar, authorization, issuance, and chain verification."""

from __future__ import annotations

import datetime

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsec.errors import (DuplicateId, Expired, LcmsecError, MalformedUrn,
                           NotAuthorized)
from lcmsec.identity import (CertificateAuthority, DomainUrn, LCMDomain,
                             PeerCertificate, authorize, load_private_key,
                             load_root_store, save_certificate,
                             save_private_key, verify_chain)

UTC = datetime.timezone.utc
GROUP = "239.255.76.67:7667"


def present() -> datetime.datetime:
    return datetime.datetime.now(UTC)


# ---------------------------------------------------------------- URN grammar


def test_parse_with_port():
    u = DomainUrn.parse("urn:lcmsec:239.255.76.67:7667:chatter:5")
    assert u == DomainUrn(group="239.255.76.67:7667", channel="chatter", id=5)


def test_parse_portless_group():
    u = DomainUrn.parse("urn:lcmsec:g:c:17")
    assert u == DomainUrn(group="g", channel="c", id=17)


def test_parse_group_scope_and_wildcard():
    assert DomainUrn.parse("urn:lcmsec:g::1").channel == ""
    assert DomainUrn.parse("urn:lcmsec:g:*:1").channel == "*"


@pytest.mark.parametrize("bad", [
    "urn:lcmsec:g:c:65536",          # id above the 16-bit bound
    "urn:other:g:c:1",               # wrong namespace
    "urn:lcmsec:g:c",                # missing id
    "urn:lcmsec:g:c:1:2:3",          # too many components
    "urn:lcmsec:g:c:-1",
    "urn:lcmsec:g:c:nope",
    "urn:lcmsec:g:c:\u0665",         # non-ASCII digit
    "urn:lcmsec:239.255.76.67:port:c:1",   # non-numeric port
    "",
])
def test_parse_rejects(bad):
    with pytest.raises(MalformedUrn):
        DomainUrn.parse(bad)


channel_chars = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters=":"),
    max_size=20)
group_names = st.one_of(
    st.just("239.255.76.67:7667"),
    st.text(alphabet="abcdefg.-", min_size=1, max_size=12))


@given(group_names, channel_chars, st.integers(0, 0xFFFF))
@settings(max_examples=100, deadline=None)
def test_urn_round_trip(group, channel, uid):
    u = DomainUrn(group=group, channel=channel, id=uid)
    assert DomainUrn.parse(u.serialize()) == u


def test_constructor_validates():
    with pytest.raises(MalformedUrn):
        DomainUrn(group="a:b:c", channel="x", id=1)
    with pytest.raises(MalformedUrn):
        DomainUrn(group="g", channel="with:colon", id=1)
    with pytest.raises(MalformedUrn):
        DomainUrn(group="g", channel="c", id=70000)
    with pytest.raises(MalformedUrn):
        DomainUrn(group="", channel="c", id=1)


# --------------------------------------------------------------- authorize


def test_authorize_exact_and_wildcard(member_factory):
    cert, _ = member_factory(GROUP, channels=("chatter",), uid=5)
    perm = authorize(cert, LCMDomain(GROUP, "chatter"), present())
    assert perm.uid == 5
    with pytest.raises(NotAuthorized):
        authorize(cert, LCMDomain(GROUP, "other"), present())
    wild, _ = member_factory(GROUP, channels=("*",), uid=6)
    assert authorize(wild, LCMDomain(GROUP, "anything"), present()).uid == 6


def test_authorize_group_scope_from_any_san(member_factory):
    cert, _ = member_factory(GROUP, channels=("chatter",), uid=7)
    assert authorize(cert, LCMDomain(GROUP, ""), present()).uid == 7


def test_authorize_wrong_group(member_factory):
    cert, _ = member_factory("10.0.0.1:1234", channels=("*",), uid=1)
    with pytest.raises(NotAuthorized):
        authorize(cert, LCMDomain(GROUP, "chatter"), present())


def test_authorize_expired(member_factory):
    cert, _ = member_factory(GROUP, channels=("*",), uid=8)
    future = datetime.datetime.now(UTC) + datetime.timedelta(days=9000)
    with pytest.raises(Expired):
        authorize(cert, LCMDomain(GROUP, "chatter"), now=future)


def test_authorize_deterministic(member_factory):
    cert, _ = member_factory(GROUP, channels=("a", "b"), uid=9)
    now = datetime.datetime.now(UTC)
    first = authorize(cert, LCMDomain(GROUP, "a"), now=now)
    for _ in range(5):
        assert authorize(cert, LCMDomain(GROUP, "a"), now=now) == first


# ---------------------------------------------------------------- issuance


def test_auto_assign_replays_log(tmp_path):
    ca = CertificateAuthority.create(tmp_path)
    group = "10.1.1.1:7667"
    for expected in (1, 2, 3):
        uid = ca.next_id(group)
        assert uid == expected
        key = ec.generate_private_key(ec.SECP256R1())
        ca.issue([DomainUrn(group=group, channel="*", id=uid)],
                 key.public_key())
    # oracle: replay the append-only log and recompute the assignment
    log = (tmp_path / "issued.log").read_text().splitlines()
    replayed: set[int] = set()
    for line in log:
        g, _, uid = line.rpartition(" ")
        if g == group:
            assert int(uid) == max(replayed, default=0) + 1
            replayed.add(int(uid))
    assert replayed == {1, 2, 3}
    # a reloaded CA continues where the log left off
    assert CertificateAuthority.load(tmp_path).next_id(group) == 4


def test_duplicate_id_rejected(tmp_path):
    ca = CertificateAuthority.create(tmp_path)
    key = ec.generate_private_key(ec.SECP256R1())
    ca.issue([DomainUrn(group="g", channel="*", id=1)], key.public_key())
    with pytest.raises(DuplicateId):
        ca.issue([DomainUrn(group="g", channel="x", id=1)], key.public_key())
    # same id in a different group is fine
    ca.issue([DomainUrn(group="h", channel="*", id=1)], key.public_key())


def test_one_id_per_group_within_cert(tmp_path):
    ca = CertificateAuthority.create(tmp_path)
    key = ec.generate_private_key(ec.SECP256R1())
    with pytest.raises(DuplicateId):
        ca.issue([DomainUrn(group="g", channel="a", id=1),
                  DomainUrn(group="g", channel="b", id=2)], key.public_key())


def test_multiple_sans_round_trip(tmp_path):
    ca = CertificateAuthority.create(tmp_path)
    key = ec.generate_private_key(ec.SECP256R1())
    urns = [DomainUrn(group="g", channel="a", id=3),
            DomainUrn(group="g", channel="b", id=3),
            DomainUrn(group="h", channel="", id=9)]
    pc = PeerCertificate(ca.issue(urns, key.public_key()))
    assert set(pc.san_urns) == set(urns)
    assert pc.uid_for_group("g") == 3
    assert pc.uid_for_group("h") == 9
    assert pc.uid_for_group("missing") is None


# ------------------------------------------------------------- verify_chain


def test_chain_to_root(member_factory, roots):
    cert, _ = member_factory(GROUP, channels=("*",))
    result = verify_chain(cert, roots, present())
    assert result
    assert "root" in result.reason


def test_self_issued_rejected(roots):
    import datetime as dt

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "rogue")])
    now = dt.datetime.now(UTC)
    cert = (x509.CertificateBuilder()
            .subject_name(name).issuer_name(name)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - dt.timedelta(minutes=1))
            .not_valid_after(now + dt.timedelta(days=1))
            .add_extension(x509.SubjectAlternativeName(
                [x509.UniformResourceIdentifier("urn:lcmsec:g:*:1")]),
                critical=False)
            .sign(key, hashes.SHA256()))
    result = verify_chain(PeerCertificate(cert), roots, present())
    assert not result


def test_foreign_root_rejected(tmp_path, roots):
    other = CertificateAuthority.create(tmp_path)
    key = ec.generate_private_key(ec.SECP256R1())
    cert = PeerCertificate(other.issue(
        [DomainUrn(group="g", channel="*", id=1)], key.public_key()))
    result = verify_chain(cert, roots, present())
    assert not result
    assert "root" in result.reason


def test_expired_chain_rejected(member_factory, roots):
    cert, _ = member_factory(GROUP, channels=("*",))
    future = datetime.datetime.now(UTC) + datetime.timedelta(days=9000)
    assert not verify_chain(cert, roots, now=future)


def test_cert_der_cache_round_trip(member_factory):
    cert, _ = member_factory(GROUP, channels=("*",))
    again = PeerCertificate.from_der(cert.der)
    third = PeerCertificate.from_der(cert.der)
    assert again is third
    assert again.fingerprint == cert.fingerprint
    assert again.san_urns == cert.san_urns


# ------------------------------------------------------------------ file I/O


def test_pem_round_trip(tmp_path, member_factory, roots):
    cert, key = member_factory(GROUP, channels=("*",))
    save_certificate(cert.cert, tmp_path / "node.pem")
    save_private_key(key, tmp_path / "node_key.pem")
    loaded = PeerCertificate.from_pem_file(tmp_path / "node.pem")
    assert loaded.fingerprint == cert.fingerprint
    reloaded_key = load_private_key(tmp_path / "node_key.pem")
    assert (reloaded_key.public_key().public_numbers()
            == key.public_key().public_numbers())


def test_root_store_directory(tmp_path, ca):
    save_certificate(ca.cert, tmp_path / "root.pem")
    store = load_root_store(tmp_path)
    assert len(store) == 1
    assert store[0].subject == ca.cert.subject


def test_root_store_accepts_single_pem_file(tmp_path, ca):
    # operators paste the root.pem path straight out of `ca init` output
    save_certificate(ca.cert, tmp_path / "root.pem")
    store = load_root_store(tmp_path / "root.pem")
    assert len(store) == 1
    assert store[0].subject == ca.cert.subject


def test_root_store_refuses_to_be_empty(tmp_path, ca):
    with pytest.raises(LcmsecError, match="no trusted certificates"):
        load_root_store(tmp_path)
    # a lone key file is not a trust anchor either
    save_private_key(ec.generate_private_key(ec.SECP256R1()),
                     tmp_path / "stray_key.pem")
    with pytest.raises(LcmsecError, match="no trusted certificates"):
        load_root_store(tmp_path / "stray_key.pem")
