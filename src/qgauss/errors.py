"""Exception hierarchy shared by all qgauss modules."""


class QGaussError(Exception):
    """Base class for all qgauss errors."""


class CapExceeded(QGaussError):
    """An enumeration exceeded the ground-set cap."""


class WindowExceeded(QGaussError):
    """A computation requested more copy indices than the backend window provides."""


class TruncationExceeded(QGaussError):
    """A Fock-space operation would leave the configured degree truncation."""


class SizeGuard(QGaussError):
    """A dense computation would exceed its hard size guard."""
