"""Interacting-tops integrable systems from R-matrix data.

Modules:
  specfun  - scalar special functions in rational/trigonometric/elliptic flavor
  tensor   - dense complex matrices, tensor products, partial traces
  rmatrix  - quantum R-matrix families and their certification
  model    - Lax pairs, Hamiltonians, Poisson structure, exchange relation
  dynamics - RK4 integration and conserved-quantity monitoring
  cli      - command-line interface
"""

__version__ = "0.1.0"
