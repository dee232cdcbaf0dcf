"""Exception hierarchy shared by all lcmsec modules.

Data-path errors (everything a hostile datagram can cause) are caught inside
``Session.receive`` and turned into drop counters; they never escape to the
caller. Control-path errors (misconfiguration, CA misuse, API misuse) do
propagate.
"""


class LcmsecError(Exception):
    """Base class for all lcmsec errors."""


# --- identity ---------------------------------------------------------------

class MalformedUrn(LcmsecError):
    """SAN URN does not match urn:lcmsec:<group>:<channel>:<id>."""


class NotAuthorized(LcmsecError):
    """Certificate carries no SAN matching the requested domain."""


class Expired(LcmsecError):
    """Certificate validity window does not cover the current time."""


class DuplicateId(LcmsecError):
    """CA issuance log already contains this id for the group."""


# --- crypto -----------------------------------------------------------------

class AuthFailure(LcmsecError):
    """AEAD tag mismatch: tamper, wrong key/epoch, or wrong associated data."""


class TooShort(LcmsecError):
    """Ciphertext shorter than the authentication tag."""


class InvalidElement(LcmsecError):
    """Serialized group element is malformed or not on the curve."""


# --- wire codec -------------------------------------------------------------

class BadMagic(LcmsecError):
    """Datagram does not start with a known lcmsec magic number."""


class Truncated(LcmsecError):
    """Datagram too short for its packet family."""


class NonCanonical(LcmsecError):
    """Management message bytes are not in canonical form."""


class BadName(LcmsecError):
    """Channel name is not ASCII or contains a NUL byte."""


class OversizeMessage(LcmsecError):
    """Message body exceeds what a receiver reassembles."""


class InconsistentFragment(LcmsecError):
    """Fragments of one message disagree on totals, lengths, or contents."""


# --- session ----------------------------------------------------------------

class NoKey(LcmsecError):
    """No key material established for the requested scope."""


class CounterExhausted(LcmsecError):
    """Send counter would wrap; a re-key is required before publishing."""


class Oversize(LcmsecError):
    """Datagram exceeds the 64 KB transport bound."""


class SocketError(LcmsecError):
    """UDP endpoint could not be created or used."""
