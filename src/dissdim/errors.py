"""The errors that the ``dissdim`` command maps to exit 3; its input errors subclass ValueError."""


class VerificationError(RuntimeError):
    """A runtime check of an exact discrete inequality or identity failed."""


class NumericalError(RuntimeError):
    """A run produced non-finite state or violated its stability condition."""
