"""Errors shared by the dissdim modules."""


class VerificationError(RuntimeError):
    """A runtime check of an exact discrete inequality or identity failed."""
