"""Constructive continuum-wise hyperbolic dynamics on concrete surfaces.

Subpackages: models (systems and charts), continua (marked arcs and records),
cwmetric (self-similar hyperbolic metric on continua, which iterates a
continuum in closed form from its pieces), holonomy
(stable/unstable holonomies and rectangles), periodic (iterative periodic
point construction), chainrec (chain recurrence decomposition), sectors
(bi-asymptotic sectors and spines).
"""

__version__ = "0.1.0"

from .models import (  # noqa: F401
    Point, SystemModel, make_model, iterate, distance, local_arc, is_spine,
)
from .continua import (  # noqa: F401
    MarkedContinuum, StraightLift, intersect, subcontinuum,
)
