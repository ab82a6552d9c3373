"""Exception types shared across the package."""


class HarqScaleError(Exception):
    """Base class for every error raised by this package."""


class DegenerateRate(HarqScaleError):
    """The rate is zero, so the energy-per-bit ratio is 0/0 (e.g. rho = 0)."""


class DegenerateResidual(HarqScaleError):
    """rho*sigma2 is too small or too large for the Monte-Carlo SINR estimate:
    the square of a power it divides by is not a finite normal float, or the
    filtered noise is too small to change any trial's residual power.  Or an
    amplitude is out of the float range of the noise-expansion check."""


class InvalidSlot(HarqScaleError):
    """Slot index outside the frame's 1..T range."""


class UnsupportedCombination(HarqScaleError):
    """No closed-form limit is available for this scheme/regime pair."""


class DimensionTooSmall(HarqScaleError):
    """Signature length too short for the requested construction."""


class DesiredInactive(HarqScaleError):
    """The user being decoded is missing from some slot's active set."""


class GridMismatch(HarqScaleError):
    """Two curves were swept over different grids and cannot be compared."""


class EmptyCurve(HarqScaleError):
    """Every grid point errored; there is nothing to plot or minimize."""


class ConfigError(HarqScaleError):
    """Bad command-line flag or config-file entry."""
