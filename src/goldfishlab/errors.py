"""Typed exceptions raised by the solvers and structure checks."""


class GoldfishLabError(Exception):
    """Base class for all package-specific errors."""


class ComplexRoots(GoldfishLabError):
    """Polynomial root recovery met imaginary parts above tolerance.

    Signals that a trajectory has left the real, collision-free sector.
    """


class RootCollision(GoldfishLabError):
    """Two recovered real roots are closer than the collision tolerance."""


class GradientUnavailable(GoldfishLabError):
    """An observable has no finite gradient at the point."""


class NegativeMomentum(GoldfishLabError):
    """An operation requiring p_i >= 0 met a negative momentum."""


class NonPositiveMomentum(GoldfishLabError):
    """An operation requiring strictly positive momenta met p_i <= 0."""


class NonPositiveVelocity(GoldfishLabError):
    """An operation requiring strictly positive velocities met qdot_i <= 0."""


class EigenvalueCollision(GoldfishLabError):
    """Two tracked eigenvalues came closer than the gap tolerance."""


class DegenerateRay(GoldfishLabError):
    """Q_i P_j - Q_j P_i vanished for some pair i != j."""


class NonRealSpectrum(GoldfishLabError):
    """A matrix expected to have a real spectrum produced complex eigenvalues."""


class NonPositiveEigenvalue(GoldfishLabError):
    """A matrix expected to be positive produced an eigenvalue <= 0."""


class NonPositiveRoot(GoldfishLabError):
    """Root recovery for exponentiated coordinates produced a root <= 0."""


class SecularNoConvergence(GoldfishLabError):
    """A secular-equation root did not converge within the iteration limit."""


class SecularOutOfDomain(GoldfishLabError):
    """The data of a secular exact route leave its domain in double precision."""


class PoleProximity(GoldfishLabError):
    """Evaluation point too close to a pole of the root function."""


class ConfigInvalid(GoldfishLabError):
    """A run configuration failed validation."""


class OutputUnwritable(GoldfishLabError):
    """An output file given on the command line could not be written."""


class IntegrationError(GoldfishLabError):
    """Base class for integrator failures; carries the partial trajectory."""

    def __init__(self, message, partial=None, time=None):
        super().__init__(message)
        self.partial = partial
        self.time = time


class CollisionDetected(IntegrationError):
    """The minimal pairwise gap dropped below the configured collision gap."""


class StepSizeUnderflow(IntegrationError):
    """The adaptive integrator could not meet the tolerance with any step."""
