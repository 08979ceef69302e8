"""Shock-aware forward sensitivities for 1D finite-volume solvers.

The package propagates dual numbers through a conservative scheme and, at the
tracked discontinuity, swaps the raw algorithmic derivative for the tangent of
the jump-condition speed evaluated on one-sided reconstructions. The result is
a generalized sensitivity: a field part plus a shock-displacement part.
"""

__version__ = "0.1.0"
