import math

import numpy as np
import pytest

from conesum.cone_operator import (
    ALPHA,
    BETA,
    Family,
    build_blocks,
    enumerate_blocks,
    gamma_channels,
)
from conesum.errors import DomainError
from conesum.sphere_modes import HARMONIC, SphereMode, enumerate_sphere_modes


def _mode(n, q, k):
    from conesum.sphere_modes import coexact_eigenvalue, coexact_multiplicity

    return SphereMode(n, q, k, coexact_eigenvalue(n, q, k), coexact_multiplicity(n, q, k))


def test_plus_half_block_example():
    blocks = build_blocks(_mode(2, 0, 1))
    plus = next(b for b in blocks if b.family is Family.PLUS_HALF)
    assert np.allclose(plus.matrix, [[0.0, -math.sqrt(2)], [-math.sqrt(2), 1.0]])
    assert plus.gammas == pytest.approx((2.0, -1.0))
    assert plus.degrees == (1, 1)


def test_minus_half_block_example():
    blocks = build_blocks(_mode(2, 0, 1))
    minus = next(b for b in blocks if b.family is Family.MINUS_HALF)
    assert minus.gammas == pytest.approx((1.0, -2.0))
    assert minus.degrees == (0, 2)
    assert minus.slots == (ALPHA, BETA)


def test_harmonic_blocks_are_pm_n_half():
    blocks = build_blocks(SphereMode(3, 0, HARMONIC, 0.0, 1))
    by_degree = {b.degrees[0]: b for b in blocks}
    assert by_degree[0].gammas == (-1.5,)
    assert by_degree[0].slots == (ALPHA,)
    assert by_degree[1].gammas == (1.5,)
    assert by_degree[1].slots == (BETA,)


def test_block_eigendecomposition_matches_formula():
    for n in (2, 3, 4):
        for block in enumerate_blocks(n, 60.0):
            ev = np.sort(np.linalg.eigvalsh(block.matrix))
            ref = np.sort(block.gammas)
            scale = max(1.0, abs(ref).max())
            assert np.max(np.abs(ev - ref)) <= 1e-12 * scale
            mode = block.mode
            if not mode.harmonic:
                s = math.hypot(math.sqrt(mode.mu_sq), (n - 1) / 2 - mode.q)
                mean = -0.5 if block.family is Family.MINUS_HALF else 0.5
                assert block.gammas == pytest.approx((mean + s, mean - s), rel=1e-14)
            # orthonormal eigenvectors diagonalise the block
            V = block.eigvecs
            assert np.allclose(V.T @ V, np.eye(block.size), atol=1e-14)
            assert np.allclose(V.T @ block.matrix @ V, np.diag(block.gammas), atol=1e-11)


def test_gamma_lower_bound_and_no_zero():
    for n in (2, 3, 4):
        for p in range(n + 2):
            for ch in gamma_channels(n, p, 60.0):
                assert abs(ch.gamma) >= n / 2.0 - 1e-12
                assert ch.gamma != 0.0
                assert ch.gamma * (ch.gamma + 1.0) >= -1e-12


def test_aa_nonnegative_positive_for_n_three_up():
    # A(A+1) >= 0 always; strictly positive from n = 3 on, while n = 2
    # attains zero exactly on the gamma = -1 channels
    for n in (2, 3, 4):
        values = [
            ch.gamma * (ch.gamma + 1.0)
            for p in range(n + 2)
            for ch in gamma_channels(n, p, 60.0)
        ]
        assert min(values) >= -1e-12
        if n >= 3:
            assert min(values) > 0.5
        else:
            zero_channels = [
                ch.gamma
                for p in range(n + 2)
                for ch in gamma_channels(n, p, 60.0)
                if abs(ch.gamma * (ch.gamma + 1.0)) <= 1e-12
            ]
            assert zero_channels and all(g == pytest.approx(-1.0) for g in zero_channels)


def test_min_gamma_is_exactly_n_half():
    for n in (2, 3, 4):
        for p in range(n + 2):
            gammas = [abs(c.gamma) for c in gamma_channels(n, p, 60.0)]
            assert min(gammas) == pytest.approx(n / 2.0, abs=1e-12)


def test_aa_operator_scalar_on_minus_blocks():
    # A(A+1) acts as the same scalar gamma(gamma+1) on both slots of a
    # MINUS_HALF block (its two degrees), and has eigenvalues gamma(gamma+1)
    # with A's eigenvectors on PLUS_HALF blocks.
    for block in enumerate_blocks(2, 30.0):
        aa = block.aa_matrix
        if block.family is Family.MINUS_HALF:
            g = block.gammas[0]
            assert np.allclose(aa, g * (g + 1.0) * np.eye(2), atol=1e-10)
        elif block.family is Family.PLUS_HALF:
            vals = [g * (g + 1.0) for g in block.gammas]
            V = block.eigvecs
            assert np.allclose(V.T @ aa @ V, np.diag(vals), atol=1e-10)


def test_degree_1_channel_multiset_example():
    chans = gamma_channels(2, 1, 2.5)
    gammas = sorted(round(c.gamma, 9) for c in chans)
    assert gammas == [-2.0, -1.0, 1.0, 1.0, 2.0]
    mults = {round(c.gamma, 9): c.multiplicity for c in chans if c.block.family is not Family.EXCEPTIONAL}
    assert mults == {2.0: 3, -1.0: 3, 1.0: 3, -2.0: 3}
    exceptional = [c for c in chans if c.block.family is Family.EXCEPTIONAL]
    assert len(exceptional) == 1 and exceptional[0].gamma == 1.0


def test_degree_0_channels():
    chans = gamma_channels(2, 0, 2.5)
    exceptional = [c for c in chans if c.block.family is Family.EXCEPTIONAL]
    assert len(exceptional) == 1 and exceptional[0].gamma == -1.0
    family = [c for c in chans if c.block.family is Family.MINUS_HALF]
    assert sorted(c.gamma for c in family) == pytest.approx([-2.0, 1.0])
    assert all(abs(c.gamma) >= 1.0 for c in chans)


def test_degree_duality_of_channel_multiset():
    for n in (2, 3):
        for p in range(n + 2):
            a = sorted(round(c.gamma * (c.gamma + 1), 9) for c in gamma_channels(n, p, 40.0))
            b = sorted(round(c.gamma * (c.gamma + 1), 9) for c in gamma_channels(n, n + 1 - p, 40.0))
            assert a == b


def test_gamma_channels_domain():
    with pytest.raises(DomainError):
        gamma_channels(2, 4, 10.0)
