"""Shared exception types."""

from __future__ import annotations

__all__ = ["CapacityError", "CertificateError"]


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured capacity limit.

    Raised instead of grinding on: strategy spaces and intermediate ray lists
    grow combinatorially, and the caller is expected to either raise the limit
    deliberately or treat the result as out of reach.
    """


class CertificateError(RuntimeError):
    """An answer's certificate (convex weights, a separating inequality, an
    optimal face) failed its exact check; a correct solver never raises it."""
