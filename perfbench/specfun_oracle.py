"""Independent check of the specfun layer: theta against mpmath.jtheta.

``toplax.specfun.theta(z, tau, d)`` sums exp(pi*i*tau*h^2 + 2*pi*i*(z+1/2)*h)
over half-integers h.  Pairing h with -h gives
-2 * sum_n (-1)^n q^((n+1/2)^2) sin((2n+1)*pi*z) with q = exp(pi*i*tau), so

    theta^(d)(z | tau) = -pi^d * jtheta(1, pi*z, q, derivative=d).

The grid is the one the retired pure-vs-compiled theta micro-benchmark used.

The error is measured in units of the round-off the series allows: machine
epsilon times the sum of the magnitudes of its terms (with the derivative
factors).  On tau = 0.1+0.07i the terms are large and cancel, so an error
relative to |theta| would measure the cancellation rather than the kernel;
relative to the term sum, a correct kernel stays within a few ulps (7.1 at
the seed commit) whatever order it sums in, while a missing, wrong or
truncated term is off by many orders of magnitude.
"""

import math
import sys

import mpmath

from toplax import specfun

TAUS = (1j, 0.3 + 0.8j, 0.1 + 0.07j)
DERIVS = (0, 1, 2, 3)
POINTS = tuple(complex(0.03 * k - 0.3, 0.02 * k - 0.2) for k in range(25))


def reference_theta(z, tau, deriv):
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        value = -mpmath.pi ** deriv * mpmath.jtheta(
            1, mpmath.pi * mpmath.mpc(z), q, derivative=deriv)
        return complex(value)


def term_magnitude_sum(z, tau, deriv):
    """Sum over half-integers h of |exp(pi*i*tau*h^2 + 2*pi*i*(z+1/2)*h)|
    times |2*pi*h|^deriv, the scale of the series' round-off."""
    total = 0.0
    for n in range(1000):
        h = n + 0.5
        quad = math.exp(-math.pi * tau.imag * h * h)
        lin = 2 * math.pi * h * z.imag
        term = quad * (math.exp(lin) + math.exp(-lin)) * (2 * math.pi * h) ** deriv
        total += term
        if n > 2 and term < 1e-20 * total:
            break
    return total


def theta_oracle_ulps():
    """Max |theta - reference| / (eps * term_magnitude_sum) over the grid."""
    worst = 0.0
    for tau in TAUS:
        for deriv in DERIVS:
            for z in POINTS:
                ref = reference_theta(z, tau, deriv)
                got = specfun.theta(z, tau, deriv=deriv)
                scale = sys.float_info.epsilon * term_magnitude_sum(
                    z, tau, deriv)
                worst = max(worst, abs(got - ref) / scale)
    return worst
