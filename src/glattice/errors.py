"""Shared exception types."""


class GlatticeError(Exception):
    """Base class for toolkit errors."""


class InvalidParameterError(GlatticeError, ValueError):
    """A constructor or operation received parameters violating its contract."""


class SpecParseError(GlatticeError, ValueError):
    """A group/graph/lattice spec string could not be parsed.

    Carries the offending token and its position for CLI reporting.
    """

    def __init__(self, message: str, token: str = "", position: int = -1):
        super().__init__(message)
        self.token = token
        self.position = position


class CertificateError(GlatticeError):
    """A certificate condition failed: a computed object is not what it claims."""


def certify(cond: bool, what: str) -> None:
    """Raise CertificateError naming ``what`` unless ``cond`` holds.

    Unlike ``assert``, this check also runs under ``python -O``.
    """
    if not cond:
        raise CertificateError(what)
