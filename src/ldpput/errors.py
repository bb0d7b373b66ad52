"""Exception types shared across the package."""

from __future__ import annotations


class LdpPutError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(LdpPutError):
    """Group closure grew past the configured order cap."""


class NotBijectiveError(LdpPutError):
    """A permutation description does not define a bijection."""


class AlphabetMismatchError(LdpPutError):
    """Operands disagree on an input or output alphabet."""


class PolytopeViolationError(LdpPutError):
    """A weight vector is not a member of the required polytope."""


class ZeroVectorError(LdpPutError):
    """The zero vector was supplied where a nonzero one is required."""


class NotLdpError(LdpPutError):
    """A channel violates the requested privacy constraint."""


class NotMaximalError(LdpPutError):
    """A channel is not maximal, so no canonical weight exists."""


class DecompositionInfeasibleError(LdpPutError):
    """A conic decomposition that should exist could not be found."""


class DimensionCapError(LdpPutError):
    """An enumeration would exceed the configured dimension cap."""


class NotTransitiveError(LdpPutError):
    """The group action is not transitive on the input alphabet."""


class RepresentativeMismatchError(LdpPutError):
    """An orbit count depends on the chosen representative; the orbit data is inconsistent."""


class UnsupportedDivergenceError(LdpPutError):
    """The requested f-divergence is not one of the supported names."""


class AttestationFailedError(LdpPutError):
    """An objective disagreed with the structure declared for it."""


class AuditFailureError(LdpPutError):
    """A sampled channel beat a claimed optimal value beyond tolerance.

    `sample_index` is the audit sample that did, so the channel can be
    redrawn from the audit's seed.
    """

    def __init__(self, message: str, *, gap=None, channel_json=None, sample_index=None):
        super().__init__(message)
        self.gap = gap
        self.channel_json = channel_json
        self.sample_index = sample_index


class MethodDisagreementError(LdpPutError):
    """Two solution methods disagree beyond the allowed tolerance."""


class LpInfeasibleError(LdpPutError):
    """The linear program has no feasible point."""


class LpUnboundedError(LdpPutError):
    """The linear program is unbounded below."""
