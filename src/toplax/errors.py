"""Exception types shared across the package."""


class ToplaxError(Exception):
    """Base class for all package-specific errors."""


class BadModulus(ToplaxError):
    """Elliptic modulus outside the strip 0.05 <= Im tau <= 56.48: too close
    to the real axis, too far from it for the kernels to stay finite, or not
    finite."""


class ThetaOverflow(ToplaxError):
    """theta itself is not representable in floating point: |theta(z)|
    grows like exp(pi (Im z)^2 / Im tau) off the real axis."""


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
    """A requested array or tensor space is larger than the desk-scale guard
    allows."""
