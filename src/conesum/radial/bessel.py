"""Bessel functions J_nu, Y_nu of real order and their derivatives.

Evaluation is delegated to scipy.special (series / asymptotics / recurrences
with well-tested switchovers).  For 0 <= nu <= 250 and 0 < x <= 1e5, J is
accurate to ~1e-10 relative and Y to ~1e-8, and the Wronskian identity
J Y' - J' Y = 2/(pi x) holds to 1e-10 relative.  There is no scaled
fallback: deep in the small-x / large-nu corner the values under- or
overflow double precision.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp


def jy_arrays(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (J, Y, J', Y') of order nu at the points x > 0.

    The derivatives come from the recurrence J'_nu = J_{nu-1} - (nu/x) J_nu,
    and the same for Y: four Bessel evaluations per point, where
    scipy.special's jvp and yvp would take six.
    """
    x = np.asarray(x, dtype=float)
    j, y = sp.jv(nu, x), sp.yv(nu, x)
    return j, y, sp.jv(nu - 1, x) - nu / x * j, sp.yv(nu - 1, x) - nu / x * y
