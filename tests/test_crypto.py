"""Known-answer and property tests for the symmetric layer.

GCM and CTR known answers are the NIST GCM test cases 3/4 and the SP 800-38A
F.5.1 CTR example; HKDF output is cross-checked against a from-scratch
extract-and-expand written with stdlib hmac.
"""

from __future__ import annotations

import hashlib
import hmac as stdlib_hmac
import struct

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsec import crypto
from lcmsec.crypto import (KeyMaterial, aead_open, aead_seal, build_iv,
                           channel_key_context, ctr_crypt,
                           derive_channel_seed,
                           derive_join_scalar, hkdf_bytes, kdf_expand,
                           key_context, sign, verify)
from lcmsec.ecgroup import P256_ORDER
from lcmsec.errors import AuthFailure, TooShort

from ivlog import IvLog, IvReuse

# ------------------------------------------------------------ known answers

GCM_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
GCM_IV = bytes.fromhex("cafebabefacedbaddecaf888")
GCM_PT_64 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")
GCM_CT_64 = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985")
GCM_TAG_NO_AAD = bytes.fromhex("4d5c2af327cd64a62cf35abd2ba6fab4")
GCM_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
GCM_TAG_AAD = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")


def material(key: bytes) -> KeyMaterial:
    return KeyMaterial(key=key, salt=0)


def test_gcm_known_answer_no_aad():
    out = aead_seal(material(GCM_KEY), GCM_IV, GCM_PT_64, b"")
    assert out == GCM_CT_64 + GCM_TAG_NO_AAD


def test_gcm_known_answer_with_aad():
    pt = GCM_PT_64[:60]
    out = aead_seal(material(GCM_KEY), GCM_IV, pt, GCM_AAD)
    assert out == GCM_CT_64[:60] + GCM_TAG_AAD
    assert aead_open(material(GCM_KEY), GCM_IV, out, GCM_AAD) == pt


CTR_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
CTR_BLOCK0 = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
CTR_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")
CTR_CT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee")


def ctr_xor(key: bytes, counter_block: bytes, data: bytes) -> bytes:
    """OpenSSL's own AES-CTR from a full 16-byte initial counter block, an
    implementation independent of ``ctr_crypt``'s ECB keystream."""
    enc = Cipher(algorithms.AES(key), modes.CTR(counter_block)).encryptor()
    return enc.update(data) + enc.finalize()


def test_ctr_known_answer():
    assert ctr_xor(CTR_KEY, CTR_BLOCK0, CTR_PT) == CTR_CT


def test_ctr_crypt_uses_zero_counter_suffix():
    km = material(CTR_KEY)
    iv = bytes(range(12))
    assert ctr_crypt(km, iv, CTR_PT) == ctr_xor(
        CTR_KEY, iv + b"\x00" * 4, CTR_PT)


# ----------------------------------------------------------------- IV layout


def test_build_iv_layout():
    iv = build_iv(0x0102, 0x0304, 0x05060708)
    assert iv == bytes.fromhex("0102030405060708" + "00" * 4)
    assert len(iv) == crypto.IV_LEN


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
       st.integers(0, 0xFFFFFFFF))
def test_build_iv_injective_fields(salt, sender, seqno):
    iv = build_iv(salt, sender, seqno)
    s, snd, seq, zero = struct.unpack(">HHII", iv)
    assert (s, snd, seq, zero) == (salt, sender, seqno, 0)


# ------------------------------------------------------------------ AEAD use

bytes_s = st.binary(max_size=200)


@given(bytes_s, bytes_s)
@settings(max_examples=50, deadline=None)
def test_aead_round_trip(pt, aad):
    km = material(b"k" * 16)
    iv = build_iv(1, 2, 3)
    assert aead_open(km, iv, aead_seal(km, iv, pt, aad), aad) == pt


def test_aead_rejects_wrong_aad_key_iv():
    km = material(b"k" * 16)
    iv = build_iv(1, 2, 3)
    box = aead_seal(km, iv, b"payload", b"chan\x00")
    with pytest.raises(AuthFailure):
        aead_open(km, iv, box, b"other\x00")
    with pytest.raises(AuthFailure):
        aead_open(material(b"K" * 16), iv, box, b"chan\x00")
    with pytest.raises(AuthFailure):
        aead_open(km, build_iv(1, 2, 4), box, b"chan\x00")


def test_aead_every_bit_flip_fails():
    km = material(b"k" * 16)
    iv = build_iv(9, 9, 9)
    box = bytearray(aead_seal(km, iv, b"hello", b"a"))
    for bit in range(len(box) * 8):
        box[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthFailure):
            aead_open(km, iv, bytes(box), b"a")
        box[bit // 8] ^= 1 << (bit % 8)


def test_aead_too_short():
    with pytest.raises(TooShort):
        aead_open(material(b"k" * 16), build_iv(0, 0, 0), b"x" * 15, b"")


def test_iv_log_trips_on_reuse():
    log = IvLog(limit=4)
    km = material(b"k" * 16)
    sealed = log.seal(km, build_iv(0, 0, 0), b"", b"")
    assert sealed == aead_seal(km, build_iv(0, 0, 0), b"", b"")
    with pytest.raises(IvReuse):
        log.seal(km, build_iv(0, 0, 0), b"", b"")
    # different key, same IV: fine
    log.seal(material(b"K" * 16), build_iv(0, 0, 0), b"", b"")
    # bounded memory: old entries are forgotten
    for i in range(1, 6):
        log.seal(km, build_iv(0, 0, i), b"", b"")
    log.seal(km, build_iv(0, 0, 1), b"", b"")


# ----------------------------------------------------------------- CTR shape


@given(bytes_s)
@settings(max_examples=50, deadline=None)
def test_ctr_self_inverse_and_length(data):
    km = material(b"c" * 16)
    iv = build_iv(4, 5, 6)
    ct = ctr_crypt(km, iv, data)
    assert len(ct) == len(data)
    assert ctr_crypt(km, iv, ct) == data


def test_ctr_prefix_property():
    # decrypting a prefix gives the prefix of the decryption
    km = material(b"c" * 16)
    iv = build_iv(4, 5, 6)
    full = ctr_crypt(km, iv, b"channel_name\x00trailing payload bytes")
    for n in range(len(full)):
        assert ctr_crypt(km, iv, full[:n]) == \
            b"channel_name\x00trailing payload bytes"[:n]


def ctr_keystream(material: KeyMaterial, iv: bytes, length: int) -> bytes:
    """Leading ``length`` keystream bytes, for incremental prefix decryption."""
    return ctr_crypt(material, iv, b"\x00" * length)


def test_ctr_keystream_matches_crypt():
    km = material(b"c" * 16)
    iv = build_iv(7, 8, 9)
    ks = ctr_keystream(km, iv, 40)
    data = bytes(range(40))
    assert bytes(a ^ b for a, b in zip(ks, data)) == ctr_crypt(km, iv, data)


# ---------------------------------------------------------------------- KDF


def hkdf_oracle(ikm: bytes, info: bytes, length: int) -> bytes:
    # RFC 5869 with SHA-256, written out longhand as an independent check
    prk = stdlib_hmac.new(b"\x00" * 32, ikm, hashlib.sha256).digest()
    out, block = b"", b""
    counter = 1
    while len(out) < length:
        block = stdlib_hmac.new(
            prk, block + info + bytes([counter]), hashlib.sha256).digest()
        out += block
        counter += 1
    return out[:length]


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=32),
       st.integers(1, 96))
@settings(max_examples=50, deadline=None)
def test_hkdf_matches_stdlib_oracle(seed, info, length):
    assert hkdf_bytes(seed, info, length) == hkdf_oracle(seed, info, length)


def test_kdf_expand_splits_key_and_salt():
    seed = b"\x33" * 33
    ctx = key_context("239.255.76.67:7667", "chatter", 5)
    km = kdf_expand(seed, ctx)
    raw = hkdf_oracle(seed, ctx, 18)
    assert km.key == raw[:16]
    assert km.salt == int.from_bytes(raw[16:], "big")


def test_key_context_separates_scopes():
    assert key_context("g", "a", 1) != key_context("g", "b", 1)
    assert key_context("g", "a", 1) != key_context("g", "a", 2)
    assert key_context("g1", "", 1) != key_context("g2", "", 1)
    # channel material also binds the group agreement it is installed
    # under: its instance id, and its seed, which two sides of a partition
    # that commit the same instance id do not share
    base = channel_key_context("g", "a", 1, b"seed-A", 7, [1, 2])
    assert base != channel_key_context("g", "a", 1, b"seed-A", 8, [1, 2])
    assert base != channel_key_context("g", "a", 1, b"seed-B", 7, [1, 2])
    assert base != channel_key_context("g", "b", 1, b"seed-A", 7, [1, 2])
    assert base != channel_key_context("g", "a", 2, b"seed-A", 7, [1, 2])
    assert base.startswith(key_context("g", "a", 1))
    # and the channel's ring, in any order it is handed in
    assert base != channel_key_context("g", "a", 1, b"seed-A", 7, [1, 2, 3])
    assert base == channel_key_context("g", "a", 1, b"seed-A", 7, [2, 1])


def test_channel_seed_binds_group_seed_channel_and_ring():
    seed = derive_channel_seed(b"group-seed", "g", "a", [1, 2, 3])
    assert len(seed) == 32
    assert seed == derive_channel_seed(b"group-seed", "g", "a", [3, 2, 1])
    assert seed != derive_channel_seed(b"other-seed", "g", "a", [1, 2, 3])
    assert seed != derive_channel_seed(b"group-seed", "g", "b", [1, 2, 3])
    assert seed != derive_channel_seed(b"group-seed", "h", "a", [1, 2, 3])
    assert seed != derive_channel_seed(b"group-seed", "g", "a", [1, 2])


def test_key_material_validation():
    with pytest.raises(ValueError):
        KeyMaterial(key=b"short", salt=0)
    with pytest.raises(ValueError):
        KeyMaterial(key=b"k" * 16, salt=1 << 16)


def test_derive_join_scalar_deterministic():
    seed = b"\x42" * 33
    s1 = derive_join_scalar(seed, 7)
    assert s1 == derive_join_scalar(seed, 7)
    assert s1 != derive_join_scalar(seed, 8)
    assert s1 != derive_join_scalar(b"\x43" * 33, 7)
    assert 1 <= s1 < P256_ORDER


# ----------------------------------------------------------------- signing


def test_sign_verify_round_trip():
    priv = ec.generate_private_key(ec.SECP256R1())
    sig = sign(b"management bytes", priv)
    assert verify(b"management bytes", sig, priv.public_key())
    assert not verify(b"other bytes", sig, priv.public_key())
    other = ec.generate_private_key(ec.SECP256R1()).public_key()
    assert not verify(b"management bytes", sig, other)
    assert not verify(b"management bytes", b"\x30\x01\x00", priv.public_key())
