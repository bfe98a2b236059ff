"""Harmonic-index spherical designs.

A point set X on the unit sphere S^{n-1} has harmonic index t when every
degree-t harmonic homogeneous polynomial sums to zero over X.  This package
evaluates the associated reproducing kernels, constructs and verifies such
designs (including the lift of a circle design to the sphere), computes the
Fisher-type cardinality bound with its Bessel-function large-degree limit,
and runs the exact feasibility tests that rule out minimum-size designs.
The public API is each module's ``__all__``, re-exported here.
"""

from .bounds import *
from .designs import *
from .exactnum import *
from .orthopoly import *
from .tightness import *

__version__ = "0.1.0"
