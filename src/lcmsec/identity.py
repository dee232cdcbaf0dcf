"""X.509 identities, URN permission grammar, and the issuing authority.

A node's permissions live in its certificate as SAN URIs of the form
``urn:lcmsec:<group>:<channel>:<id>``. The empty channel component names the
group-wide scope, ``*`` grants every channel in the group, and ``<id>`` is
the node's unique 16-bit identifier within that group.
"""

from __future__ import annotations

import datetime
import threading
from dataclasses import dataclass
from pathlib import Path

from cryptography import x509
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from .errors import (DuplicateId, Expired, LcmsecError, MalformedUrn,
                     NotAuthorized)

URN_PREFIX = "urn:lcmsec"
GROUP_SCOPE = ""
WILDCARD = "*"


@dataclass(frozen=True)
class LCMDomain:
    """One protection scope: a multicast group plus a channel name.

    ``channel == ""`` denotes the group-wide scope (the key that encrypts
    channel names).
    """

    group: str
    channel: str


@dataclass(frozen=True)
class Permission:
    domain: LCMDomain
    uid: int


def _ascii_token(s: str) -> bool:
    return s.isascii() and "\x00" not in s and ":" not in s


@dataclass(frozen=True)
class DomainUrn:
    """Parsed SAN entry; id is the holder's unique id within the group."""

    group: str
    channel: str
    id: int

    def __post_init__(self):
        if not self.group or not self.group.isascii() or "\x00" in self.group:
            raise MalformedUrn(f"bad group: {self.group!r}")
        if self.group.count(":") > 1:
            raise MalformedUrn(f"bad group: {self.group!r}")
        if not _ascii_token(self.channel):
            raise MalformedUrn(f"bad channel: {self.channel!r}")
        if not 0 <= self.id <= 0xFFFF:
            raise MalformedUrn(f"id out of 16-bit range: {self.id}")

    def serialize(self) -> str:
        return f"{URN_PREFIX}:{self.group}:{self.channel}:{self.id}"

    @classmethod
    def parse(cls, s: str) -> "DomainUrn":
        if not s.isascii():
            raise MalformedUrn("non-ASCII URN")
        parts = s.split(":")
        if parts[:2] != ["urn", "lcmsec"]:
            raise MalformedUrn(f"wrong namespace: {s!r}")
        rest = parts[2:]
        if len(rest) == 4:
            # group carries an explicit port: <ipv4>:<port>:<channel>:<id>
            if not (rest[1].isdigit() and int(rest[1]) <= 0xFFFF):
                raise MalformedUrn(f"bad port: {s!r}")
            group, channel, idpart = f"{rest[0]}:{rest[1]}", rest[2], rest[3]
        elif len(rest) == 3:
            group, channel, idpart = rest
        else:
            raise MalformedUrn(f"wrong component count: {s!r}")
        if not idpart.isdigit():
            raise MalformedUrn(f"bad id: {s!r}")
        uid = int(idpart)
        if uid > 0xFFFF:
            raise MalformedUrn(f"id out of 16-bit range: {uid}")
        return cls(group=group, channel=channel, id=uid)


# --------------------------------------------------------------- certificates

_CERT_CACHE: dict[bytes, "PeerCertificate"] = {}
_CERT_CACHE_LIMIT = 4096


class PeerCertificate:
    """Wrapper around one X.509 certificate with its permissions parsed out.

    Construction fails unless every SAN URI parses and at least one is
    present; chain verification is a separate step (:func:`verify_chain`).
    """

    def __init__(self, cert: x509.Certificate):
        self.cert = cert
        self.der = cert.public_bytes(serialization.Encoding.DER)
        digest = hashes.Hash(hashes.SHA256())
        digest.update(self.der)
        self.fingerprint = digest.finalize()
        try:
            san = cert.extensions.get_extension_for_class(
                x509.SubjectAlternativeName).value
        except x509.ExtensionNotFound:
            raise MalformedUrn("certificate carries no SAN extension")
        uris = san.get_values_for_type(x509.UniformResourceIdentifier)
        if not uris:
            raise MalformedUrn("certificate carries no URI SANs")
        self.san_urns = tuple(DomainUrn.parse(u) for u in uris)
        self._channels: dict[str, set[str]] = {}
        for urn in self.san_urns:
            self._channels.setdefault(urn.group, set()).add(urn.channel)

    @classmethod
    def from_der(cls, der: bytes) -> "PeerCertificate":
        cached = _CERT_CACHE.get(der)
        if cached is not None:
            return cached
        pc = cls(x509.load_der_x509_certificate(der))
        if len(_CERT_CACHE) >= _CERT_CACHE_LIMIT:
            _CERT_CACHE.clear()
        _CERT_CACHE[der] = pc
        return pc

    @classmethod
    def from_pem_file(cls, path: str | Path) -> "PeerCertificate":
        return cls(x509.load_pem_x509_certificate(Path(path).read_bytes()))

    def public_key(self) -> ec.EllipticCurvePublicKey:
        key = self.cert.public_key()
        if not isinstance(key, ec.EllipticCurvePublicKey):
            raise MalformedUrn("subject key is not an EC key")
        return key

    def grants(self, group: str, channel: str) -> bool:
        """Whether a SAN names ``channel`` of ``group``, or ``*``; validity
        and ids are for :func:`authorize` to check."""
        names = self._channels.get(group, ())
        return channel in names or WILDCARD in names

    def uid_for_group(self, group: str) -> int | None:
        ids = {u.id for u in self.san_urns if u.group == group}
        if len(ids) == 1:
            return ids.pop()
        return None

    def __repr__(self):
        return f"PeerCertificate({self.fingerprint.hex()[:12]})"


def authorize(cert: PeerCertificate, domain: LCMDomain,
              now: datetime.datetime) -> Permission:
    """Permission lookup at ``now``; assumes the chain was already verified.

    The group scope is granted by any SAN in the group (whoever may use a
    channel must also take part in the group agreement). A concrete channel
    needs an exact SAN match or the ``*`` wildcard.
    """
    if not (cert.cert.not_valid_before_utc <= now
            <= cert.cert.not_valid_after_utc):
        raise Expired("certificate outside its validity window")
    in_group = [u for u in cert.san_urns if u.group == domain.group]
    if domain.channel == GROUP_SCOPE:
        matches = in_group
    else:
        matches = [u for u in in_group
                   if u.channel in (domain.channel, WILDCARD)]
    if not matches:
        raise NotAuthorized(
            f"no SAN grants {domain.group!r}:{domain.channel!r}")
    ids = {u.id for u in matches}
    if len(ids) != 1:
        raise NotAuthorized(f"conflicting ids {sorted(ids)} for one group")
    return Permission(domain=domain, uid=ids.pop())


class VerificationResult:
    """Truthy on success; carries a reason, and the signing root if any."""

    def __init__(self, ok: bool, reason: str, root=None):
        self.ok, self.reason, self.root = ok, reason, root

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"VerificationResult({self.ok}, {self.reason!r})"


def _signed_by(cert: x509.Certificate, issuer: x509.Certificate) -> bool:
    if cert.issuer != issuer.subject:
        return False
    key = issuer.public_key()
    try:
        key.verify(cert.signature, cert.tbs_certificate_bytes,
                   ec.ECDSA(cert.signature_hash_algorithm))
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def verify_chain(cert: PeerCertificate, roots: list[x509.Certificate],
                 now: datetime.datetime) -> VerificationResult:
    """Check that one of ``roots`` signed ``cert`` and that both are valid
    at ``now``; members are issued by the root directly."""
    leaf = cert.cert
    if not leaf.not_valid_before_utc <= now <= leaf.not_valid_after_utc:
        return VerificationResult(False, "outside validity window")
    for root in roots:
        if _signed_by(leaf, root):
            if not (root.not_valid_before_utc <= now
                    <= root.not_valid_after_utc):
                return VerificationResult(False, "root expired")
            return VerificationResult(True, "signed by a configured root",
                                      root)
    return VerificationResult(False, "not signed by a configured root")


def load_root_store(path: str | Path) -> list[x509.Certificate]:
    """Trusted certificates from a PEM file or from every *.pem in a directory.

    Key files living next to the roots (as an authority directory has) are
    skipped by their PEM label rather than by filename convention.  An empty
    result raises: a node with zero roots would reject every peer, which is
    much harder to diagnose downstream than a loud failure here.
    """
    path = Path(path)
    files = sorted(path.glob("*.pem")) if path.is_dir() else [path]
    roots: list[x509.Certificate] = []
    for pem in files:
        data = pem.read_bytes()
        if b"-----BEGIN CERTIFICATE-----" not in data:
            continue
        roots.extend(x509.load_pem_x509_certificates(data))
    if not roots:
        raise LcmsecError(f"no trusted certificates found at {path}")
    return roots


# ------------------------------------------------------ certificate authority


class CertificateAuthority:
    """Self-signed root that issues member certificates.

    The issuance log is an append-only file of ``<group> <id>`` lines; ids
    are unique per group and auto-assignment hands out max+1.
    """

    def __init__(self, cert: x509.Certificate,
                 key: ec.EllipticCurvePrivateKey, log_path: str | Path):
        self.cert = cert
        self.key = key
        self.log_path = Path(log_path)
        self._lock = threading.Lock()
        self._issued: dict[str, set[int]] = {}
        if self.log_path.exists():
            for line in self.log_path.read_text().splitlines():
                if not line.strip():
                    continue
                group, _, uid = line.rpartition(" ")
                self._issued.setdefault(group, set()).add(int(uid))

    @classmethod
    def create(cls, directory: str | Path, common_name: str = "lcmsec-root",
               validity_days: int = 3650) -> "CertificateAuthority":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        key = ec.generate_private_key(ec.SECP256R1())
        name = x509.Name(
            [x509.NameAttribute(NameOID.COMMON_NAME, common_name)])
        now = datetime.datetime.now(datetime.timezone.utc)
        cert = (x509.CertificateBuilder()
                .subject_name(name)
                .issuer_name(name)
                .public_key(key.public_key())
                .serial_number(x509.random_serial_number())
                .not_valid_before(now - datetime.timedelta(minutes=5))
                .not_valid_after(now + datetime.timedelta(days=validity_days))
                .add_extension(x509.BasicConstraints(ca=True, path_length=1),
                               critical=True)
                .sign(key, hashes.SHA256()))
        (directory / "root.pem").write_bytes(
            cert.public_bytes(serialization.Encoding.PEM))
        (directory / "root_key.pem").write_bytes(key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption()))
        return cls(cert, key, directory / "issued.log")

    @classmethod
    def load(cls, directory: str | Path) -> "CertificateAuthority":
        directory = Path(directory)
        cert = x509.load_pem_x509_certificate(
            (directory / "root.pem").read_bytes())
        key = serialization.load_pem_private_key(
            (directory / "root_key.pem").read_bytes(), password=None)
        return cls(cert, key, directory / "issued.log")

    def next_id(self, group: str) -> int:
        taken = self._issued.get(group, set())
        return max(taken, default=0) + 1

    def issue(self, requests: list[DomainUrn],
              subject_key: ec.EllipticCurvePublicKey,
              common_name: str = "lcmsec-node",
              validity_days: int = 365) -> x509.Certificate:
        if not requests:
            raise MalformedUrn("no SAN URNs requested")
        with self._lock:
            per_group: dict[str, set[int]] = {}
            for urn in requests:
                per_group.setdefault(urn.group, set()).add(urn.id)
            for group, ids in per_group.items():
                if len(ids) != 1:
                    raise DuplicateId(
                        f"one certificate must use one id per group, "
                        f"got {sorted(ids)} for {group!r}")
                (uid,) = ids
                if uid in self._issued.get(group, set()):
                    raise DuplicateId(f"id {uid} already issued in {group!r}")
            now = datetime.datetime.now(datetime.timezone.utc)
            cert = (x509.CertificateBuilder()
                    .subject_name(x509.Name([x509.NameAttribute(
                        NameOID.COMMON_NAME, common_name)]))
                    .issuer_name(self.cert.subject)
                    .public_key(subject_key)
                    .serial_number(x509.random_serial_number())
                    .not_valid_before(now - datetime.timedelta(minutes=5))
                    .not_valid_after(
                        now + datetime.timedelta(days=validity_days))
                    .add_extension(x509.SubjectAlternativeName(
                        [x509.UniformResourceIdentifier(u.serialize())
                         for u in requests]), critical=False)
                    .add_extension(
                        x509.BasicConstraints(ca=False, path_length=None),
                        critical=True)
                    .sign(self.key, hashes.SHA256()))
            with self.log_path.open("a") as log:
                for group, ids in sorted(per_group.items()):
                    self._issued.setdefault(group, set()).update(ids)
                    log.write(f"{group} {min(ids)}\n")
        return cert


def save_private_key(key: ec.EllipticCurvePrivateKey, path: str | Path):
    Path(path).write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()))


def load_private_key(path: str | Path) -> ec.EllipticCurvePrivateKey:
    key = serialization.load_pem_private_key(
        Path(path).read_bytes(), password=None)
    if not isinstance(key, ec.EllipticCurvePrivateKey):
        raise ValueError("expected an EC private key")
    return key


def save_certificate(cert: x509.Certificate, path: str | Path):
    Path(path).write_bytes(cert.public_bytes(serialization.Encoding.PEM))
