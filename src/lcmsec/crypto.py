"""Symmetric primitives and signatures for the secured data path.

AES-128-GCM seals payloads, AES-CTR hides channel names, HKDF-SHA256 turns an
agreed group element into per-scope key material, and ECDSA over P-256 signs
management traffic. All block-cipher and signature work is delegated to the
``cryptography`` package (OpenSSL); this module pins the constructions.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .ecgroup import P256
from .errors import AuthFailure, TooShort

KEY_LEN = 16
SALT_BITS = 16
TAG_LEN = 16
IV_LEN = 12

#: sign/verify hash for management traffic
_SIG_HASH = ec.ECDSA(hashes.SHA256())


@dataclass(frozen=True)
class KeyMaterial:
    """Symmetric secret derived from one key agreement: an AES-128 key and
    the salt that keeps its IVs apart from other keys' IVs."""

    key: bytes
    salt: int
    #: cipher objects bound once: building them costs more than the block
    #: work of one datagram, and the data path uses them for every datagram.
    #: They are shared by every caller of this key; the package drives a
    #: node's data path from one thread.
    gcm: AESGCM = field(init=False, repr=False, compare=False)
    ecb: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError("key must be 16 bytes")
        if not 0 <= self.salt < (1 << SALT_BITS):
            raise ValueError("salt must fit in 16 bits")
        object.__setattr__(self, "gcm", AESGCM(self.key))
        # ECB over successive counter blocks IS the CTR keystream; a single
        # long-lived encryptor works because ECB chains no state between blocks
        object.__setattr__(self, "ecb", Cipher(
            algorithms.AES(self.key), modes.ECB()).encryptor())


def build_iv(salt: int, sender_id: int, msg_seqno: int) -> bytes:
    """Deterministic 96-bit IV: salt | sender_id | msg_seqno | zero.

    All fields big-endian; the trailing 32 bits are always zero. Within one
    key the (sender_id, msg_seqno) pair maps injectively to IVs.
    """
    return struct.pack(">HHII", salt, sender_id, msg_seqno, 0)


def aead_seal(material: KeyMaterial, iv: bytes, plaintext: bytes,
              aad: bytes) -> bytes:
    """AES-128-GCM: returns ciphertext followed by the 16-byte tag.

    The caller guarantees IV uniqueness per key.
    """
    return material.gcm.encrypt(iv, plaintext, aad)


def aead_open(material: KeyMaterial, iv: bytes, ciphertext_and_tag: bytes,
              aad: bytes) -> bytes:
    """Inverse of :func:`aead_seal`; raises on any mismatch."""
    if len(ciphertext_and_tag) < TAG_LEN:
        raise TooShort("ciphertext shorter than the authentication tag")
    try:
        return material.gcm.decrypt(iv, ciphertext_and_tag, aad)
    except InvalidSignature:
        raise AuthFailure("AEAD tag mismatch")
    except Exception:
        # cryptography raises InvalidTag, a subclass of Exception only
        raise AuthFailure("AEAD tag mismatch")


def ctr_crypt(material: KeyMaterial, iv: bytes, data: bytes) -> bytes:
    """AES-CTR stream encryption with the 96-bit IV and counter starting at 0.

    Self-inverse and length preserving; the first n output bytes depend only
    on the first n input bytes, so a receiver can decrypt a prefix bytewise.
    """
    n = len(data)
    if not n:
        return b""
    block = iv + b"\x00\x00\x00\x00"
    if n <= 16:
        ks = material.ecb.update(block)
    else:
        # the 32-bit counter starts at 0, so it never carries into the IV
        start = int.from_bytes(block, "big")
        ks = material.ecb.update(b"".join(
            (start + j).to_bytes(16, "big") for j in range((n + 15) // 16)))
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(ks[:n], "big")).to_bytes(n, "big")


def hkdf_bytes(seed: bytes, context: bytes, length: int) -> bytes:
    """Extract-then-expand over SHA-256; pure function of (seed, context)."""
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=None,
                info=context).derive(seed)


def kdf_expand(session_seed: bytes, context: bytes) -> KeyMaterial:
    """Derive key material from an agreed session seed.

    One 18-byte expand stream: 16 key bytes then 2 salt bytes. ``context``
    must bind the group, the channel, and the agreement instance id.
    """
    out = hkdf_bytes(session_seed, context, KEY_LEN + 2)
    salt = int.from_bytes(out[KEY_LEN:], "big")
    return KeyMaterial(key=out[:KEY_LEN], salt=salt)


def key_context(group: str, channel: str, instance_id: int) -> bytes:
    """Canonical KDF context for one agreement run."""
    return (b"lcmsec-key\x00" + group.encode("ascii") + b"\x00"
            + channel.encode("ascii") + b"\x00" + struct.pack(">Q", instance_id))


def _ring(uids) -> bytes:
    return b"".join(struct.pack(">H", uid) for uid in sorted(uids))


def channel_key_context(group: str, channel: str, instance_id: int,
                        group_seed: bytes, group_instance: int,
                        ring) -> bytes:
    """KDF context for channel material installed under one group agreement.

    It binds that agreement's instance id and a digest of its secret seed,
    so every group commit re-keys every channel without a channel agreement.
    Instance ids are public and unique only within one node's view: two
    sides of a partition can each commit the same one. Their seeds differ,
    so their channel keys do too. It also binds the uids of the channel's
    ``ring``, so two members that derived different rings never share a key.
    """
    return (key_context(group, channel, instance_id)
            + struct.pack(">Q", group_instance)
            + hashlib.sha256(group_seed).digest() + _ring(ring))


def derive_channel_seed(group_seed: bytes, group: str, channel: str,
                        ring) -> bytes:
    """Seed of a channel whose ring is every member of the group agreement
    that agreed ``group_seed``: every member can derive it, and no one
    else."""
    context = (b"lcmsec-channel\x00" + group.encode("ascii") + b"\x00"
               + channel.encode("ascii") + b"\x00" + _ring(ring))
    return hkdf_bytes(group_seed, context, 32)


def derive_join_scalar(previous_seed: bytes, instance_id: int) -> int:
    """Deterministic ring scalar for the first incumbent representative.

    Every holder of the previous session seed can recompute it, which is what
    lets non-representative incumbents follow a join passively.
    """
    ctx = b"join-representative" + struct.pack(">Q", instance_id)
    return P256.scalar_from_bytes(hkdf_bytes(previous_seed, ctx, 48))


def sign(message: bytes, private_key: ec.EllipticCurvePrivateKey) -> bytes:
    return private_key.sign(message, _SIG_HASH)


def verify(message: bytes, signature: bytes,
           public_key: ec.EllipticCurvePublicKey) -> bool:
    try:
        public_key.verify(signature, message, _SIG_HASH)
        return True
    except InvalidSignature:
        return False
    except ValueError:
        return False
