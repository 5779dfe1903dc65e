"""Exception types shared across the package."""

from typing import Optional


class GroupGeoError(Exception):
    """Base class for all package errors."""


class MemoryCapExceeded(GroupGeoError):
    """A stage hit a size cap before spending the memory: by default ball
    enumeration's element cap; ``message`` names any other stage and cap."""

    def __init__(self, cap: int, radius: int, message: Optional[str] = None):
        self.cap = cap
        self.radius = radius
        super().__init__(
            message or f"ball enumeration exceeded {cap} elements at radius {radius}"
        )


class CapExceeded(GroupGeoError):
    """A search radius cap was exhausted before the target was found."""


class MissingPresentation(GroupGeoError):
    """The operation needs a presentation on the source group."""


class BadCosetRep(GroupGeoError):
    """The coset representative does not describe an index-two splitting."""


class TooFewPoints(GroupGeoError):
    """Not enough data points for the requested measurement."""


class NotNonorientable(GroupGeoError):
    """The operation is only defined for nonorientable surfaces."""


class InadmissiblePair(GroupGeoError):
    """A complement component has non-negative Euler characteristic."""
