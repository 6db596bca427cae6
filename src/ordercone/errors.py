"""Domain errors shared across the package."""

from __future__ import annotations


class OrderConeError(Exception):
    """Base class for mathematical rejections of otherwise well-formed input."""


class ParseError(OrderConeError):
    """Malformed space file, vector literal, or structural input."""


class NotPointed(OrderConeError):
    """The cone contains a line, so it induces no partial order."""


class NotGenerating(OrderConeError):
    """The cone does not span the ambient space."""


class NotPositive(OrderConeError):
    """A vector required to be positive (or strictly positive) is not."""


class NotPervasive(OrderConeError):
    """An operation that needs a pervasive space was given a non-pervasive one."""


class NotAtom(OrderConeError):
    """A vector required to generate an extreme ray does not."""


class NotDirectSum(OrderConeError):
    """Two subspaces expected to decompose the space directly do not."""


class PreconditionViolated(OrderConeError):
    """Input data breaks an operation's stated entry conditions."""


class NotABand(OrderConeError):
    """A subspace required to be a band (or ideal) is not one."""


class CapExceeded(OrderConeError):
    """An exponential enumeration would exceed the configured cap."""


class CertificateError(OrderConeError):
    """A computed answer failed the check that certifies it (a library fault)."""


class UnknownBuiltin(ParseError):
    """A builtin space name that the dispatcher does not recognize."""


class NotMember(OrderConeError):
    """A sequence fails the membership equation of the sequence space."""


class NotInC(OrderConeError):
    """A sequence lies outside the subspace of eventually-zero members."""
