import math

import pytest
from hypothesis import given, strategies as st

from conesum.errors import DomainError
from conesum.sphere_modes import (
    HARMONIC,
    coexact_eigenvalue,
    coexact_multiplicity,
    enumerate_sphere_modes,
    harmonic_modes,
)


def test_eigenvalue_anchors():
    assert coexact_eigenvalue(2, 0, 1) == 2.0
    assert coexact_eigenvalue(4, 1, 1) == 6.0
    # coexact 1-forms on S^2 pair with functions under Hodge duality
    assert coexact_eigenvalue(2, 1, 2) == 6.0
    assert coexact_eigenvalue(2, 1, 2) == coexact_eigenvalue(2, 0, 2)


def test_eigenvalue_lower_bound_saturated_at_k1():
    for n in range(2, 6):
        for q in range(n):
            assert coexact_eigenvalue(n, q, 1) == pytest.approx((n - q) * (q + 1))
            for k in range(2, 6):
                assert coexact_eigenvalue(n, q, k) > (n - q) * (q + 1)


def test_multiplicity_anchors():
    # spherical harmonics on S^2 and the dual coexact 1-forms: 2k+1
    for k in range(1, 8):
        assert coexact_multiplicity(2, 0, k) == 2 * k + 1
        assert coexact_multiplicity(2, 1, k) == 2 * k + 1
    # functions on S^3: (k+1)^2; coexact 1-forms on S^3: 2k(k+2)
    assert [coexact_multiplicity(3, 0, k) for k in (1, 2, 3)] == [4, 9, 16]
    assert [coexact_multiplicity(3, 1, k) for k in (1, 2)] == [6, 16]
    # S^4: functions level 1 and the curl-type 1-forms
    assert coexact_multiplicity(4, 0, 1) == 5
    assert coexact_multiplicity(4, 1, 1) == 10
    assert coexact_multiplicity(4, 2, 1) == 10


@given(
    n=st.integers(min_value=2, max_value=7),
    q=st.integers(min_value=0, max_value=6),
    k=st.integers(min_value=1, max_value=9),
)
def test_duality_symmetry(n, q, k):
    if q > n - 1:
        return
    qd = n - 1 - q
    assert coexact_eigenvalue(n, q, k) == coexact_eigenvalue(n, qd, k)
    assert coexact_multiplicity(n, q, k) == coexact_multiplicity(n, qd, k)


def test_enumeration_example_n2():
    modes = enumerate_sphere_modes(2, 2.5)
    keyed = {(m.q, m.k): m for m in modes}
    assert set(keyed) == {(0, HARMONIC), (2, HARMONIC), (0, 1), (1, 1)}
    assert keyed[(0, 1)].mu_sq == 2.0 and keyed[(0, 1)].multiplicity == 3
    assert keyed[(1, 1)].mu_sq == 2.0 and keyed[(1, 1)].multiplicity == 3


def test_enumeration_only_harmonic_below_bound():
    modes = enumerate_sphere_modes(2, 0.5)
    assert all(m.harmonic for m in modes) and len(modes) == 2


def test_enumeration_example_n3():
    modes = enumerate_sphere_modes(3, 3.0)
    nonharm = [(m.q, m.k, m.mu_sq) for m in modes if not m.harmonic]
    assert nonharm == [(0, 1, 3.0), (2, 1, 3.0)]


@given(
    n=st.integers(min_value=2, max_value=4),
    lo=st.floats(min_value=0.5, max_value=20.0),
    hi=st.floats(min_value=0.5, max_value=20.0),
)
def test_enumeration_monotone(n, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    small = {(m.q, m.k) for m in enumerate_sphere_modes(n, lo)}
    big = {(m.q, m.k) for m in enumerate_sphere_modes(n, hi)}
    assert small <= big


def test_harmonic_markers():
    modes = harmonic_modes(3)
    assert all(m.mu_sq == 0.0 and m.multiplicity == 1 for m in modes)
    assert {m.q for m in modes} == {0, 3}


def test_domain_errors():
    with pytest.raises(DomainError):
        coexact_eigenvalue(2, 2, 1)  # q = n has no coexact forms
    with pytest.raises(DomainError):
        coexact_eigenvalue(2, -1, 1)
    with pytest.raises(DomainError):
        coexact_eigenvalue(2, 0, 0)
    with pytest.raises(DomainError):
        enumerate_sphere_modes(1, 5.0)
    # the k loop ends only once mu^2 exceeds the bound
    for bound in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            enumerate_sphere_modes(2, bound)

