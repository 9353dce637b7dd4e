"""Image continua for the tests to compare the closed-form metric against.

The library never builds f^n(C): cwmetric evaluates each piece of a
continuum at iterate n in closed form.  These helpers build the image of
a lifted eigen-arc the direct way, so a test can run the metric on it
and check that the closed form gives the same value.
"""

import numpy as np

from cwdyn import models
from cwdyn.continua import MarkedContinuum, StraightLift

# image vertices are spaced at most this far apart along the lift
_EDGE = 0.4


def iterate_lift(sys, lift: StraightLift, n: int) -> StraightLift:
    """The lift of the n-th image of an eigen-tagged lift: the cover start
    moves by exact integer arithmetic mod 1, the length by |eigenvalue|^n."""
    if n == 0:
        return lift
    start = models._exact_linear_mod1(models._mat_power(sys.matrix, n), lift.start_arr)
    frame = models.eigen_frame(sys.matrix)
    ev = frame.ss if lift.stable else frame.su
    direction = lift.dir_arr if (ev > 0 or n % 2 == 0) else -lift.dir_arr
    return StraightLift(start=tuple(start), direction=tuple(direction),
                        length=lift.length * abs(ev) ** n, chart=lift.chart,
                        stable=lift.stable)


def image(sys, cont: MarkedContinuum, n: int) -> MarkedContinuum:
    """f^n of a lifted eigen-arc, marks carried along; the lift params
    are refined until no edge is longer than _EDGE."""
    if n == 0:
        return cont
    lift = iterate_lift(sys, cont.lift, n)
    t = cont.params
    need = int(np.ceil(lift.length / _EDGE + 1.0))
    if need > len(t):
        t = np.unique(np.concatenate([t, np.linspace(0.0, 1.0, need)]))
    mp = int(np.searchsorted(t, cont.params[cont.mark_p]))
    mq = int(np.searchsorted(t, cont.params[cont.mark_q]))
    return MarkedContinuum(chart=cont.chart, vertices=lift.project(t), params=t,
                           mark_p=mp, mark_q=mq, lift=lift)


def diameter(cont: MarkedContinuum) -> float:
    """Max pairwise chart distance over the vertices."""
    v = cont.vertices
    return float(models.chart_distance(cont.chart, v[:, None, :], v[None, :, :]).max())
