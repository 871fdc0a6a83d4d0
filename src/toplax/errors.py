"""Exception types shared across the package."""


class ToplaxError(Exception):
    """Base class for all package-specific errors."""


class BadModulus(ToplaxError):
    """Elliptic modulus too close to the real axis (Im tau < 0.05)."""


class NonConvergent(ToplaxError):
    """Theta series hit the hard term cap before the truncation test passed."""


class ThetaOverflow(ToplaxError):
    """Theta series terms overflow floating point: the argument lies too far
    off the real axis, outside the range the series is summed in."""


class PoleProximity(ToplaxError):
    """An argument landed within the guard distance of a pole."""

    def __init__(self, argument, distance=None):
        self.argument = argument
        self.distance = distance
        msg = f"argument {argument} too close to a pole"
        if distance is not None:
            msg += f" (distance {distance:.3e})"
        super().__init__(msg)


class DegenerateDraw(ToplaxError):
    """A random draw failed within its redraw limit: a rank-1 spin draw kept
    a near-zero diagonal pairing, or sample points or positions could not
    clear the pole margin."""


class ConstraintViolation(ToplaxError):
    """Block traces of the spin matrix deviate from the common level."""


class ConstraintDrift(ToplaxError):
    """Integrated trajectory drifted off the constraint surface."""


class ScaleExceeded(ToplaxError):
    """Requested tensor space is larger than the desk-scale guard allows."""
