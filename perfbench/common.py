"""Shared pieces of the benchmark: statistics, credentials and payloads.

Nothing here touches the network. Credentials are issued by a throwaway
certificate authority whose files live under ``perfbench/out`` inside the
checkout and are removed when the run ends.
"""

from __future__ import annotations

import math
import random
import struct
import time
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric import ec

from lcmsec import wire
from lcmsec.gka import LocalIdentity
from lcmsec.identity import CertificateAuthority, DomainUrn, PeerCertificate

OUT_DIR = Path(__file__).resolve().parent / "out"

#: (size in bytes, weight in percent) of the data-path payload mix
PAYLOAD_MIX = ((64, 60), (1024, 25), (4096, 10), (32768, 5))
MTU = 1400
#: leading bytes of data datagrams, and of management ones
DATA_MAGICS = (struct.pack(">I", wire.MAGIC_SECURE),
               struct.pack(">I", wire.MAGIC_FRAGMENT))
MGMT_MAGIC = struct.pack(">I", wire.MAGIC_MANAGEMENT)

clock = time.perf_counter

_TAG = struct.Struct(">QI")       # message index, payload length


# ------------------------------------------------------------------ statistics


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    Matches numpy's default method: rank ``q/100 * (n-1)`` in sorted order,
    interpolated between its two neighbours.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = q / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------- credentials


class Credentials:
    """One certificate authority plus the member identities it issued."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ca = CertificateAuthority.create(workdir)
        self.roots = [self.ca.cert]

    def member(self, group: str, uid: int, channels=("*",)) -> LocalIdentity:
        key = ec.generate_private_key(ec.SECP256R1())
        urns = [DomainUrn(group=group, channel=c, id=uid) for c in channels]
        cert = self.ca.issue(urns, key.public_key(), common_name=f"node-{uid}")
        return LocalIdentity(uid=uid, cert=PeerCertificate(cert), key=key)


# -------------------------------------------------------------------- payloads


class PayloadSource:
    """Seeded messages: a tag (index and length) followed by seeded bytes.

    Every payload is unique through its index, so a subscriber's delivery
    can be matched to exactly one publish.
    """

    def __init__(self, seed: int, channels):
        self.rng = random.Random(seed)
        self.channels = tuple(channels)
        self.sizes = [size for size, _ in PAYLOAD_MIX]
        self.weights = [weight for _, weight in PAYLOAD_MIX]
        # one seeded block per size; the tag makes each message distinct
        self._blocks = {size: self.rng.randbytes(size) for size in self.sizes}
        self.index = 0

    def next(self) -> tuple[str, bytes]:
        size = self.rng.choices(self.sizes, self.weights)[0]
        channel = self.channels[self.rng.randrange(len(self.channels))]
        payload = (_TAG.pack(self.index, size)
                   + self._blocks[size][_TAG.size:])
        self.index += 1
        return channel, payload

    def fixed(self, size: int) -> bytes:
        """A tagged payload of one size, outside the seeded mix."""
        payload = _TAG.pack(self.index, size) + self.rng.randbytes(
            size - _TAG.size)
        self.index += 1
        return payload


def payload_index(payload: bytes) -> int:
    return _TAG.unpack_from(payload)[0]
