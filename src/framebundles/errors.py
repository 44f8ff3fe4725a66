"""Exception types shared across the library."""


class FrameBundlesError(Exception):
    """Base class for all library-specific errors."""


class BoundExceeded(FrameBundlesError):
    """An exhaustive operation was asked to enumerate past the configured bound."""


class Obstruction(FrameBundlesError):
    """A mathematical obstruction to what was asked, not a usage error."""


class NotFree(Obstruction):
    """Operation requires a free action (division, bases, frame spaces)."""


class NoQuotient(Obstruction):
    """Division of points from different orbits, or a path crossing orbits."""


class OrbitObstruction(Obstruction):
    """An equivariant map does not induce a bijection on orbits, so it has no frame lift."""


class TooSmall(Obstruction):
    """The symmetric-action labelling is only canonical for index sets of size >= 3."""


class NotFaithful(Obstruction):
    """A permutation action expected to be faithful has a non-trivial kernel."""


class ModeMismatch(Obstruction):
    """A bundle operation was applied to a bundle of the wrong mode."""


class SchemaError(FrameBundlesError):
    """A specification document does not match the documented schema."""
