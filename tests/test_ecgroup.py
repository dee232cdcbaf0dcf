"""Group-law and encoding tests for the P-256 wrapper.

``P256.exp`` and ``P256.deserialize`` run in OpenSSL, so the independent
oracle here is pure Python: a Jacobian double-and-add ladder and the
square-root decode (p = 3 mod 4). Fixed-base results are also checked
against public-key derivation, and arbitrary-base x-coordinates against a
plain ECDH exchange.
"""

from __future__ import annotations

import random
import sys

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsec import ecgroup
from lcmsec.ecgroup import (ELEMENT_LEN, IDENTITY_BYTES, P256, P256_GX,
                            P256_GY, P256_ORDER)
from lcmsec.errors import InvalidElement

scalars = st.integers(min_value=1, max_value=P256_ORDER - 1)
P = P256.p


# ------------------------------------------------------ pure-Python oracle


def _jac_double(x, y, z):
    if z == 0 or y == 0:
        return (0, 1, 0)
    # a = -3 shortcut: alpha = 3(x - z^2)(x + z^2)
    delta = z * z % P
    gamma = y * y % P
    beta = x * gamma % P
    alpha = 3 * (x - delta) * (x + delta) % P
    x3 = (alpha * alpha - 8 * beta) % P
    z3 = ((y + z) * (y + z) - gamma - delta) % P
    y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % P
    return (x3, y3, z3)


def _jac_add(x1, y1, z1, x2, y2, z2):
    if z1 == 0:
        return (x2, y2, z2)
    if z2 == 0:
        return (x1, y1, z1)
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 * z2z2 % P
    s2 = y2 * z1 * z1z1 % P
    if u1 == u2:
        if s1 != s2:
            return (0, 1, 0)
        return _jac_double(x1, y1, z1)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * s1 * j) % P
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) % P * h % P
    return (x3, y3, z3)


def ladder_exp(base, scalar):
    """Scalar multiplication by double-and-add in Jacobian coordinates
    (x = X/Z^2, y = Y/Z^3): the oracle for ``P256.exp``."""
    scalar %= P256_ORDER
    if base is None or scalar == 0:
        return None
    rx, ry, rz = 0, 1, 0  # identity
    for bit in bin(scalar)[2:]:
        rx, ry, rz = _jac_double(rx, ry, rz)
        if bit == "1":
            rx, ry, rz = _jac_add(rx, ry, rz, base[0], base[1], 1)
    if rz == 0:
        return None
    zinv = pow(rz, -1, P)
    zinv2 = zinv * zinv % P
    return (rx * zinv2 % P, ry * zinv2 * zinv % P)


def sqrt_decode(data: bytes):
    """SEC1 compressed decode by the modular square root: the oracle for
    ``P256.deserialize``. Returns None where no point exists."""
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        return None
    rhs = (x * x * x + P256.a * x + P256.b) % P
    y = pow(rhs, (P + 1) // 4, P)
    if y * y % P != rhs:
        return None
    if (y & 1) != (data[0] & 1):
        y = P - y
    return (x, y)


def non_residue_xs():
    """x in [2, 50) with no point on the curve."""
    return [x for x in range(2, 50)
            if pow((pow(x, 3, P) - 3 * x + P256.b) % P, (P - 1) // 2, P) != 1]


def random_element(rng: random.Random):
    return P256.exp(P256.generator, 1 + rng.randrange(P256_ORDER - 1))


# ---------------------------------------------------------------- group laws


@given(scalars, scalars)
@settings(max_examples=50, deadline=None)
def test_exp_is_homomorphic(a, b):
    lhs = P256.exp(P256.generator, (a + b) % P256_ORDER)
    rhs = P256.op(P256.exp(P256.generator, a), P256.exp(P256.generator, b))
    assert lhs == rhs


@given(scalars)
@settings(max_examples=50, deadline=None)
def test_inverse_cancels(a):
    x = P256.exp(P256.generator, a)
    assert P256.op(x, P256.inv(x)) is None
    assert P256.op(P256.inv(x), x) is None


@given(scalars)
@settings(max_examples=50, deadline=None)
def test_identity_neutral(a):
    x = P256.exp(P256.generator, a)
    assert P256.op(x, None) == x
    assert P256.op(None, x) == x


def test_op_associative_on_samples():
    rng = random.Random(0x1CE)
    for _ in range(200):
        a, b, c = (random_element(rng) for _ in range(3))
        assert P256.op(P256.op(a, b), c) == P256.op(a, P256.op(b, c))


def test_exp_edge_scalars():
    g = P256.generator
    assert P256.exp(g, 0) is None
    assert P256.exp(g, 1) == g
    assert P256.exp(g, P256_ORDER) is None
    assert P256.exp(g, P256_ORDER - 1) == P256.inv(g)


def test_exp_of_identity():
    assert P256.exp(None, 12345) is None


# ------------------------------------------------- cross-check with OpenSSL


@pytest.mark.parametrize("scalar", [1, 2, 3, 0xDEADBEEF, P256_ORDER - 1])
def test_fixed_base_matches_openssl(scalar):
    ours = P256.exp(P256.generator, scalar)
    pub = ec.derive_private_key(scalar, ec.SECP256R1()).public_key()
    nums = pub.public_numbers()
    assert ours == (nums.x, nums.y)


def test_arbitrary_base_matches_ecdh():
    # exp(base, k) where base is itself a public point equals an ECDH shared
    # x-coordinate computed entirely inside OpenSSL.
    rng = random.Random(7)
    for _ in range(5):
        a = 1 + rng.randrange(P256_ORDER - 1)
        b = 1 + rng.randrange(P256_ORDER - 1)
        base = P256.exp(P256.generator, a)
        ours = P256.exp(base, b)
        priv_b = ec.derive_private_key(b, ec.SECP256R1())
        peer_a = ec.derive_private_key(a, ec.SECP256R1()).public_key()
        shared = priv_b.exchange(ec.ECDH(), peer_a)
        assert ours is not None
        assert ours[0] == int.from_bytes(shared, "big")


# ------------------------------------------ cross-check with the Python ladder


@given(scalars, st.integers(min_value=0, max_value=2 * P256_ORDER))
@settings(max_examples=200, deadline=None)
def test_exp_matches_ladder(a, k):
    # the base comes from the ladder too, so no OpenSSL result feeds it
    base = ladder_exp(P256.generator, a)
    assert P256.exp(base, k) == ladder_exp(base, k)


G = (P256_GX, P256_GY)
ARBITRARY = ladder_exp(G, 0x5EED_1234_ABCD)


@pytest.mark.parametrize("base", [
    G, P256.inv(G), ladder_exp(G, 2), ARBITRARY, None],
    ids=["G", "-G", "2G", "Z", "identity"])
@pytest.mark.parametrize("scalar", [
    1, 2, 3, 0xDEADBEEF, P256_ORDER - 2, P256_ORDER - 1, P256_ORDER,
    P256_ORDER + 1, 0], ids=["1", "2", "3", "deadbeef", "n-2", "n-1", "n",
                             "n+1", "0"])
def test_exp_edge_bases_and_scalars(base, scalar):
    assert P256.exp(base, scalar) == ladder_exp(base, scalar)


def test_exp_on_minus_g_is_minus_kg():
    # base + G is the identity here, so the sign test has nothing to
    # exchange against
    for k in (1, 2, 0xC0FFEE, P256_ORDER - 1):
        assert P256.exp(P256.inv(G), k) == P256.inv(ladder_exp(G, k))


# ---------------------------------------- complete addition against the ladder


ADDITION_CASES = {
    # both operands as scalars of G, 0 for the identity
    "P+Q": lambda a, b: (a, b),
    "P+P": lambda a, b: (a, a),
    "P+(-P)": lambda a, b: (a, P256_ORDER - a),
    "P+O": lambda a, b: (a, 0),
    "O+P": lambda a, b: (0, a),
    "O+O": lambda a, b: (0, 0),
}
nonzero = st.integers(min_value=1, max_value=P - 1)


@given(st.sampled_from(sorted(ADDITION_CASES)), scalars, scalars, nonzero,
       nonzero)
@settings(max_examples=200, deadline=None)
def test_addition_matches_ladder(case, a, b, lam, mu):
    sa, sb = ADDITION_CASES[case](a, b)
    pt1, pt2 = ladder_exp(G, sa), ladder_exp(G, sb)
    want = ladder_exp(G, sa + sb)
    assert P256.op(pt1, pt2) == want
    # projective inputs with any Z, as a sum that is still being folded
    scaled = [tuple(c * k % P for c in P256.projective(pt))
              for pt, k in ((pt1, lam), (pt2, mu))]
    total = P256.add(*scaled)
    assert P256.affine(total) == want
    assert P256.equal(total, P256.projective(want))
    assert P256.equal(scaled[0], P256.projective(pt1))
    assert not P256.equal(total, P256.projective(ladder_exp(G, sa + sb + 1)))


def _lines_run(fn, *args) -> list[tuple[str, int]]:
    """The lines of ``lcmsec/ecgroup.py`` that ``fn(*args)`` executes."""
    lines = []

    def trace(frame, event, _):
        if frame.f_code.co_filename != ecgroup.__file__:
            return None
        if event == "line":
            lines.append((frame.f_code.co_name, frame.f_lineno))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return lines


def test_addition_runs_the_same_lines_for_every_case():
    # no exceptional case: doubling and inverse inputs take the generic
    # path, and the identity they may yield is selected, not branched to
    pt = ladder_exp(G, 0x5EED)
    generic = _lines_run(P256.op, pt, ladder_exp(G, 0xC0FFEE))
    assert {name for name, _ in generic} >= {"op", "add", "affine"}
    assert _lines_run(P256.op, pt, pt) == generic
    assert _lines_run(P256.op, pt, P256.inv(pt)) == generic


# ------------------------------------------------------------------ encoding


def test_generator_constants_on_curve():
    x, y = P256_GX, P256_GY
    assert 0 <= x < P and 0 <= y < P
    assert (y * y - (x * x * x + P256.a * x + P256.b)) % P == 0
    assert P256.generator == (x, y)


@given(scalars)
@settings(max_examples=50, deadline=None)
def test_serialize_round_trip(a):
    x = P256.exp(P256.generator, a)
    enc = P256.serialize(x)
    assert len(enc) == ELEMENT_LEN
    assert enc[0] in (2, 3)
    assert P256.deserialize(enc) == x


def test_identity_serialization():
    assert P256.serialize(None) == IDENTITY_BYTES
    assert P256.deserialize(IDENTITY_BYTES) is None


@pytest.mark.parametrize("blob", [
    b"",
    b"\x04" + b"\x11" * 32,                  # uncompressed prefix rejected
    b"\x02" + b"\x00" * 31,                  # wrong length
    b"\x02" + b"\xff" * 32,                  # x >= p
    b"\x00" * 33,                            # identity must be exactly 1 byte
])
def test_deserialize_rejects_malformed(blob):
    with pytest.raises(InvalidElement):
        P256.deserialize(blob)


def test_deserialize_rejects_off_curve():
    # x = 5 has no square root of x^3 - 3x + b mod p on P-256
    candidates = non_residue_xs()
    assert candidates, "expected at least one non-residue in range"
    blob = bytes([2]) + candidates[0].to_bytes(32, "big")
    with pytest.raises(InvalidElement):
        P256.deserialize(blob)


def _first_valid_x_above_p():
    # x = p + d encodes the same residue as d; a decoder that reduced x
    # mod p would accept it
    for d in range(1000):
        if sqrt_decode(bytes([2]) + d.to_bytes(32, "big")) is not None:
            return P + d
    raise AssertionError("no valid x below 1000")


@pytest.mark.parametrize("x", [P, _first_valid_x_above_p(), (1 << 256) - 1])
@pytest.mark.parametrize("prefix", [2, 3])
def test_deserialize_refuses_x_at_or_above_p(x, prefix):
    with pytest.raises(InvalidElement):
        P256.deserialize(bytes([prefix]) + x.to_bytes(32, "big"))


@pytest.mark.parametrize("prefix", [2, 3])
def test_deserialize_refuses_x_without_square_root(prefix):
    for x in non_residue_xs():
        with pytest.raises(InvalidElement):
            P256.deserialize(bytes([prefix]) + x.to_bytes(32, "big"))


@pytest.mark.parametrize("blob", [
    b"\x01" + P256_GX.to_bytes(32, "big"),      # not a SEC1 prefix
    b"\x04" + P256_GX.to_bytes(32, "big"),      # uncompressed prefix, short
    b"\x04" + P256_GX.to_bytes(32, "big") + P256_GY.to_bytes(32, "big"),
    b"\x02",
    b"\x02" + P256_GX.to_bytes(32, "big")[1:],  # 32 bytes
    b"\x02" + P256_GX.to_bytes(32, "big") + b"\x00",
    b"\x00\x00",                                 # identity with trailing byte
])
def test_deserialize_refuses_bad_prefix_and_length(blob):
    with pytest.raises(InvalidElement):
        P256.deserialize(blob)


@given(scalars)
@settings(max_examples=50, deadline=None)
def test_deserialize_matches_square_root_decode(a):
    x, _ = ladder_exp(P256.generator, a)
    for prefix in (2, 3):
        blob = bytes([prefix]) + x.to_bytes(32, "big")
        decoded = P256.deserialize(blob)
        assert decoded == sqrt_decode(blob)
        assert decoded[1] & 1 == prefix & 1


def test_scalar_from_bytes_range_and_determinism():
    raw = bytes(range(48))
    s1 = P256.scalar_from_bytes(raw)
    s2 = P256.scalar_from_bytes(raw)
    assert s1 == s2
    assert 1 <= s1 < P256_ORDER
    with pytest.raises(ValueError):
        P256.scalar_from_bytes(b"short")


def test_random_scalar_seeded_reproducible():
    a = P256.random_scalar(random.Random(42))
    b = P256.random_scalar(random.Random(42))
    c = P256.random_scalar(random.Random(43))
    assert a == b
    assert a != c
    assert 1 <= a < P256_ORDER


def test_random_scalar_default_in_range():
    s = P256.random_scalar()
    assert 1 <= s < P256_ORDER
