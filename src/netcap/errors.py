"""Exception types raised by the netcap package."""

from __future__ import annotations


class NetcapError(Exception):
    """Base class for all netcap errors."""


class InvalidInstanceError(NetcapError):
    """A network, traffic matrix, facility menu or instance is malformed."""


class ParseError(NetcapError):
    """An instance, point or traffic file, or a name or number in one,
    could not be parsed."""


class PreconditionError(NetcapError):
    """An operation's input fails a documented precondition."""


class InvalidCutError(NetcapError):
    """A cut-set specification is structurally invalid."""


class VacuousCutError(NetcapError):
    """The requested cut-set inequality is vacuous (zero MIR remainder).

    Distinct from :class:`InvalidCutError`: the request was well formed but
    the resulting inequality would be trivial, so none is produced.
    """


class NoRoutingError(NetcapError):
    """No capacity level can route the given traffic (disconnected network)."""


class BoxTooLargeError(NetcapError):
    """An enumeration box exceeds the configured size limit."""


class MissingBoundError(NetcapError):
    """The upper bound given for integer variables is not a nonnegative int,
    so branch and bound has no finite box to search."""
