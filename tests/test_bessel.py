import math

import numpy as np
import pytest

from conesum.radial.bessel import jy_arrays


def bisect(f, a, b, steps=200):
    fa = f(a)
    for _ in range(steps):
        m = 0.5 * (a + b)
        if fa * f(m) <= 0:
            b = m
        else:
            a, fa = m, f(m)
    return 0.5 * (a + b)


def test_half_order_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x, so J_{1/2}(pi) = 0
    x = np.array([math.pi, 1.234])
    j = jy_arrays(0.5, x)[0]
    assert abs(j[0]) < 1e-12
    assert j[1] == pytest.approx(math.sqrt(2 / (math.pi * x[1])) * math.sin(x[1]), rel=1e-12)


def test_first_zero_of_j_three_halves():
    # tan x = x locates the first zero of J_{3/2}
    x0 = bisect(lambda x: math.tan(x) - x, math.pi + 0.01, 1.5 * math.pi - 1e-9)
    assert x0 == pytest.approx(4.4934095, abs=1e-6)
    j = jy_arrays(1.5, np.array([4.4934095, x0]))[0]
    assert abs(j[0]) < 1e-7
    assert abs(j[1]) < 1e-12


@pytest.mark.parametrize(
    "nu,x",
    [(0.0, 0.3), (0.5, 2.0), (1.5, 4.49), (3.7, 0.08), (7.25, 30.0), (12.0, 1.0), (25.5, 80.0)],
)
def test_wronskian_identity(nu, x):
    j, y, jp, yp = jy_arrays(nu, np.array([x]))
    target = 2.0 / (math.pi * x)
    assert abs((j * yp - jp * y)[0] - target) / target < 1e-10
