"""AES-GCM nonce tripwire for tests.

The node must never seal two messages under one key and IV. ``IvLog.seal``
is ``crypto.aead_seal`` behind a check of that rule; a test can patch it in
for ``lcmsec.session.aead_seal`` and drive a node through its re-keys.
"""

from __future__ import annotations

from collections import deque

from lcmsec import crypto


class IvReuse(AssertionError):
    """Same IV sealed twice under one key."""


class IvLog:
    """Remembers the last ``limit`` IVs per key and trips on a repeat."""

    def __init__(self, limit: int = 1 << 20):
        self.limit = limit
        self._seen: dict[bytes, set] = {}
        self._order: dict[bytes, deque] = {}

    def check(self, key: bytes, iv: bytes) -> None:
        seen = self._seen.setdefault(key, set())
        if iv in seen:
            raise IvReuse(f"IV repeated under one key: {iv.hex()}")
        order = self._order.setdefault(key, deque())
        seen.add(iv)
        order.append(iv)
        if len(order) > self.limit:
            seen.discard(order.popleft())

    def seal(self, material: crypto.KeyMaterial, iv: bytes, plaintext: bytes,
             aad: bytes) -> bytes:
        self.check(material.key, iv)
        return crypto.aead_seal(material, iv, plaintext, aad)
