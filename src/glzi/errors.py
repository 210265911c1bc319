"""Exception types shared across the package."""


class GlziError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(GlziError):
    """Operands live on incompatible Hilbert or Liouville spaces."""


class CutoffTooSmall(GlziError):
    """Fock truncation leaves too much probability above the cutoff."""


class EnergyBudgetExceeded(GlziError):
    """Requested squeezing does not fit inside the mean-photon budget."""


class MeanUnreachable(GlziError):
    """No distribution center reproduces the target mean on the truncated grid."""


class IndexOutOfRange(GlziError):
    """Fock index beyond the truncated basis."""


class InvalidNoise(GlziError):
    """Noise rates are negative or mutually inconsistent."""


class StepUnderflow(GlziError):
    """Adaptive step size fell below the configured minimum."""


class MaxStepsExceeded(GlziError):
    """Integration did not finish within the configured step budget."""


class ZeroTrace(GlziError):
    """Density matrix trace too small to renormalize."""


class OutOfWindow(GlziError):
    """Time outside the protocol window."""


class EmptyInput(GlziError):
    """Reduction requested on an empty or too-short sample set."""


class DegenerateFit(GlziError):
    """Least-squares fit has no spread in the abscissa."""


class ConfigError(GlziError):
    """Malformed configuration file, key, or value."""


class SpotCheckFailed(GlziError):
    """A sweep's closed-form values disagree with its forward spot cycle."""
