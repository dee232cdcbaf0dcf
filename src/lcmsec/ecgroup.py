"""The P-256 group used by the key agreement.

The agreement needs genuine group arithmetic on arbitrary points (add two
received points, negate one, raise one to an ephemeral scalar). Scalar
multiplication and point decoding run in OpenSSL through ``cryptography``:

- ``k·G`` is the public key of the private key ``k``;
- ``k·Z`` for any other point is an ECDH exchange, which yields only the
  x-coordinate. OpenSSL's point decompression gives the two candidate
  y-coordinates, and a second exchange against ``Z + G`` picks the one that
  is consistent with ``k·Z + k·G``;
- decoding a SEC1 point is OpenSSL's ``from_encoded_point``, which checks
  the range and the curve equation.

So no Python code branches on the bits of a secret scalar. Point addition
stays in Python, and it handles derived points that are secret too. It is
the complete projective addition of Renes, Costello and Batina ("Complete
addition formulas for prime order elliptic curves", EUROCRYPT 2016,
Algorithm 4 for a = -3): one straight-line formula for generic points,
doublings, inverses and the identity, with no exceptional case. The one
inversion back to affine form is blinded by a random factor, the y-sign
pick above is an arithmetic select, and so the Python code has no
exceptional cases or secret-dependent branches. It is not constant time:
CPython's integers take operand-dependent time. The curve is NIST P-256:
prime order, cofactor 1, and the same curve the certificate signatures use.

Elements are affine ``(x, y)`` tuples with ``None`` for the identity; a
sum of many points stays in projective ``(X, Y, Z)`` form, with x = X/Z and
y = Y/Z and the identity at Z = 0, until one inversion ends it.
Serialization is SEC1 compressed (33 bytes), with the single byte ``0x00``
for the identity.
"""

from __future__ import annotations

import secrets
from typing import Optional, Tuple

from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidElement

Point = Optional[Tuple[int, int]]
Projective = Tuple[int, int, int]

# NIST P-256 (secp256r1) domain parameters.
P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
P256_A = P256_P - 3
P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
P256_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
P256_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

IDENTITY_BYTES = b"\x00"
ELEMENT_LEN = 33

_CURVE = ec.SECP256R1()
_ECDH = ec.ECDH()


def _public_key(pt: Tuple[int, int]) -> ec.EllipticCurvePublicKey:
    x, y = pt
    return ec.EllipticCurvePublicKey.from_encoded_point(
        _CURVE, b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big"))


def _affine(key: ec.EllipticCurvePublicKey) -> Tuple[int, int]:
    nums = key.public_numbers()
    return (nums.x, nums.y)


class P256Group:
    """Group operations on P-256.

    Multiplicative naming follows the key-agreement literature: ``exp`` is
    scalar multiplication, ``op`` point addition, ``inv`` negation.
    """

    p = P256_P
    a = P256_A
    b = P256_B
    order = P256_ORDER
    generator: Point = (P256_GX, P256_GY)

    # -- point addition ----------------------------------------------

    def op(self, pt1: Point, pt2: Point) -> Point:
        """Group operation (point addition)."""
        return self.affine(self.add(self.projective(pt1),
                                    self.projective(pt2)))

    def projective(self, pt: Point) -> Projective:
        """``pt`` as (X, Y, Z) with Z = 1; the identity is (0, 1, 0)."""
        return (0, 1, 0) if pt is None else (*pt, 1)

    def add(self, pt1: Projective, pt2: Projective) -> Projective:
        """Complete addition in projective form (RCB Algorithm 4, a = -3,
        with its additions merged into fewer reductions); every input pair
        runs the same lines."""
        p, b = self.p, self.b
        x1, y1, z1 = pt1
        x2, y2, z2 = pt2
        t0 = x1 * x2 % p
        t1 = y1 * y2 % p
        t2 = z1 * z2 % p
        t3 = ((x1 + y1) * (x2 + y2) - t0 - t1) % p
        t4 = ((y1 + z1) * (y2 + z2) - t1 - t2) % p
        y3 = ((x1 + z1) * (x2 + z2) - t0 - t2) % p
        x3 = 3 * (y3 - b * t2)
        z3 = t1 - x3
        x3 = t1 + x3
        t2 = 3 * t2
        y3 = 3 * (b * y3 - t2 - t0)
        t0 = 3 * t0 - t2
        return ((t3 * x3 - t4 * y3) % p, (x3 * z3 + t0 * y3) % p,
                (t4 * z3 + t3 * t0) % p)

    def affine(self, pt: Projective) -> Point:
        """``pt`` in affine form, by one inversion of Z blinded with a
        random nonzero factor, so the inversion does not see Z itself."""
        p = self.p
        x, y, z = pt
        r = 1 + secrets.randbelow(p - 1)
        zr = z * r % p
        # Z = 0 is the identity: invert 1 instead and select None
        zinv = pow(zr + (zr == 0), -1, p) * r % p
        return ((x * zinv % p, y * zinv % p), None)[zr == 0]

    def equal(self, pt1: Projective, pt2: Projective) -> bool:
        """Whether two projective points are one point, by cross-multiplying
        instead of inverting."""
        p = self.p
        x1, y1, z1 = pt1
        x2, y2, z2 = pt2
        return ((x1 * z2 - x2 * z1) % p, (y1 * z2 - y2 * z1) % p) == (0, 0)

    def inv(self, pt: Point) -> Point:
        """Group inverse (point negation)."""
        if pt is None:
            return None
        x, y = pt
        return (x, (-y) % self.p)

    # -- scalar multiplication -----------------------------------------

    def exp(self, base: Point, scalar: int) -> Point:
        """``base`` raised to ``scalar`` (scalar multiplication)."""
        scalar %= self.order
        if base is None or scalar == 0:
            return None
        key = ec.derive_private_key(scalar, _CURVE)
        kg = _affine(key.public_key())
        if base == self.generator:
            return kg
        shifted = self.op(base, self.generator)
        if shifted is None:             # base = -G
            return self.inv(kg)
        x_raw = key.exchange(_ECDH, _public_key(base))
        x, y = _affine(ec.EllipticCurvePublicKey.from_encoded_point(
            _CURVE, b"\x02" + x_raw))
        # k·base = (x, ±y) and k·(base + G) = k·base + k·G. The addition
        # law says x(P + Q) = λ² - x_P - x_Q with λ = (y_Q - y_P)/(x_Q - x_P),
        # which holds for exactly one of ±y (the group has no 2-torsion).
        # x ≠ x(k·G), since base ≠ ±G and k ≠ 0.
        x2 = int.from_bytes(key.exchange(_ECDH, _public_key(shifted)), "big")
        p = self.p
        gx, gy = kg
        # an arithmetic select of -y where the law fails for +y
        flip = ((x2 + x + gx) * (gx - x) ** 2 - (gy - y) ** 2) % p != 0
        return (x, (y - 2 * flip * y) % p)

    # -- scalars ---------------------------------------------------------

    def random_scalar(self, rng=None) -> int:
        """Uniform scalar in [1, order-1].

        Without ``rng`` it comes from the OS CSPRNG. A node passes its own
        rng, which is ``random.SystemRandom`` (the OS CSPRNG too) unless the
        caller seeded a ``random.Random`` for a reproducible simulation.
        """
        if rng is None:
            return 1 + secrets.randbelow(self.order - 1)
        return rng.randrange(1, self.order)

    def scalar_from_bytes(self, data: bytes) -> int:
        """Map a uniform byte string to a scalar in [1, order-1].

        Needs at least 16 bytes of slack beyond the order size so the
        modular reduction bias stays negligible.
        """
        if len(data) < 48:
            raise ValueError("need at least 48 bytes for unbiased reduction")
        return 1 + int.from_bytes(data, "big") % (self.order - 1)

    # -- serialization ---------------------------------------------------

    def serialize(self, pt: Point) -> bytes:
        """SEC1 compressed encoding; the identity is the single byte 0x00."""
        if pt is None:
            return IDENTITY_BYTES
        x, y = pt
        prefix = b"\x03" if y & 1 else b"\x02"
        return prefix + x.to_bytes(32, "big")

    def deserialize(self, data: bytes) -> Point:
        """Inverse of :meth:`serialize`; OpenSSL refuses an x at or above p
        and an x with no point on the curve."""
        if data == IDENTITY_BYTES:
            return None
        if len(data) != ELEMENT_LEN or data[0] not in (2, 3):
            raise InvalidElement("bad element encoding")
        try:
            key = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, data)
        except ValueError:
            raise InvalidElement("not a point on the curve")
        return _affine(key)


P256 = P256Group()
