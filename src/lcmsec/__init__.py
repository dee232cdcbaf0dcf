"""Brokerless authenticated encryption for UDP-multicast publish/subscribe.

Channel names and payloads travel encrypted under a two-level key hierarchy;
the keys come from a decentralized group key agreement bootstrapped by X.509
identities, with no broker or key server on the data path.
"""

from .errors import LcmsecError
from .node import LcmsecNode

__all__ = ["LcmsecError", "LcmsecNode", "SessionConfig", "load_config",
           "parse_config"]
__version__ = "0.1.0"

_CONFIG_NAMES = ("SessionConfig", "load_config", "parse_config")


def __getattr__(name):
    # the config file belongs to the command line tools; importing them on
    # first use keeps ``python -m lcmsec.cli`` from loading that module twice
    if name in _CONFIG_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
