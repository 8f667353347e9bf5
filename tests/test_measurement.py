import math

import numpy as np
import pytest

import qfluct as qf
from qfluct.errors import ValidationError
from qfluct.rand import (
    random_density_matrix,
    random_hermitian,
    random_povm,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def z_basis_measurement():
    return qf.ProjectiveMeasurement.create(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )


def test_observable_from_hermitian_pauli_z():
    obs = qf.observable_from_hermitian(PAULI_Z)
    assert obs.values == (-1.0, 1.0)
    assert np.abs(obs.projectors[0] - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(obs.projectors[1] - np.diag([1.0, 0.0])).max() < 1e-12


def test_observable_from_hermitian_identity_fully_degenerate():
    obs = qf.observable_from_hermitian(np.eye(3, dtype=complex))
    assert obs.values == (1.0,)
    assert np.abs(obs.projectors[0] - np.eye(3)).max() < 1e-12


def test_observable_scaling():
    h = np.diag([0.5, -0.25, 2.0]).astype(complex)
    base = qf.observable_from_hermitian(h)
    scaled = qf.observable_from_hermitian(3.0 * h)
    assert np.allclose(sorted(scaled.values), sorted(3.0 * v for v in base.values))
    for v, p in zip(base.values, base.projectors):
        match = [q for w, q in zip(scaled.values, scaled.projectors) if abs(w - 3 * v) < 1e-9]
        assert len(match) == 1
        assert np.abs(match[0] - p).max() < 1e-12


def test_extended_observable_merges_infinite_branches():
    obs = qf.ExtendedObservable.create(
        [
            (math.inf, np.diag([1.0, 0.0, 0.0]).astype(complex)),
            (0.5, np.diag([0.0, 1.0, 0.0]).astype(complex)),
            (math.inf, np.diag([0.0, 0.0, 1.0]).astype(complex)),
        ]
    )
    assert obs.values == (0.5, math.inf)
    assert round(float(np.trace(obs.projectors[-1]).real)) == 2


def test_extended_observable_rejects_close_finite_values():
    with pytest.raises(ValidationError, match="distinct"):
        qf.ExtendedObservable.create(
            [
                (0.0, np.diag([1.0, 0.0]).astype(complex)),
                (1e-12, np.diag([0.0, 1.0]).astype(complex)),
            ]
        )


def test_extended_observable_rejects_overlapping_projectors():
    with pytest.raises(ValidationError, match="overlap"):
        qf.ExtendedObservable.create([(0.0, np.diag([1.0, 0.0]).astype(complex)), (1.0, PLUS)])
    with pytest.raises(ValidationError, match="overlap"):
        qf.ExtendedObservable.create(
            [(0.0, np.diag([1.0, 0.0]).astype(complex)), (1.0, np.eye(2, dtype=complex))]
        )


def test_extended_observable_rejects_incomplete_family():
    with pytest.raises(ValidationError, match="incomplete"):
        qf.ExtendedObservable.create(
            [
                (0.0, np.diag([1.0, 0.0, 0.0]).astype(complex)),
                (1.0, np.diag([0.0, 1.0, 0.0]).astype(complex)),
            ]
        )


def test_extended_observable_exponentials_refuse_to_overflow():
    big = qf.observable_from_hermitian(np.diag([0.0, 800.0]).astype(complex))
    with pytest.raises(ValidationError, match="800.0"):
        big.exp_pos()
    assert np.abs(big.exp_neg() - np.diag([1.0, 0.0])).max() < 1e-12
    low = qf.observable_from_hermitian(np.diag([-800.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError, match="-800.0"):
        low.exp_neg()


def test_extended_observable_exponentials():
    obs = qf.ExtendedObservable.create(
        [(math.inf, np.diag([1.0, 0.0]).astype(complex)), (2.0, np.diag([0.0, 1.0]).astype(complex))]
    )
    assert np.abs(obs.exp_neg() - np.diag([0.0, np.exp(-2.0)])).max() < 1e-12
    with pytest.raises(ValidationError, match="unbounded"):
        obs.exp_pos()


def test_measurement_channel_commuting_fixpoint():
    rng = np.random.default_rng(1)
    for _ in range(5):
        h = random_hermitian(3, rng)
        obs = qf.observable_from_hermitian(h)
        # a state diagonal in the same eigenbasis commutes with every projector
        w = rng.dirichlet(np.ones(3))
        dec = qf.spectral_decompose(h)
        rho = (dec.vectors * w) @ dec.vectors.conj().T
        out = qf.measurement_channel(rho, obs.measurement())
        assert np.abs(out - rho).max() < 1e-12


def test_measurement_channel_dephases_plus_state():
    out = qf.measurement_channel(PLUS, z_basis_measurement())
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12
    with pytest.raises(ValidationError, match="mismatch"):
        qf.measurement_channel(np.eye(3, dtype=complex) / 3, z_basis_measurement())


def test_measurement_channel_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density_matrix(3, rng)
        obs = qf.observable_from_hermitian(random_hermitian(3, rng))
        m = obs.measurement()
        once = qf.measurement_channel(rho, m)
        twice = qf.measurement_channel(once, m)
        assert np.abs(once - twice).max() < 1e-12


def test_povm_validation():
    with pytest.raises(ValidationError, match="completeness"):
        qf.POVM.create([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex)])
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        qf.POVM.create([np.diag([1.5, 1.0]).astype(complex), np.diag([-0.5, 0.0]).astype(complex)])


def test_povm_probabilities_trivial_and_mixed():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    single = qf.POVM.create([np.eye(2, dtype=complex)])
    assert np.allclose(qf.povm_probabilities(rho, single), [1.0])
    povm = random_povm(2, 3, rng)
    probs = qf.povm_probabilities(np.eye(2, dtype=complex) / 2, povm)
    expected = [float(np.trace(m).real) / 2 for m in povm.elements]
    assert np.abs(probs - expected).max() < 1e-12


def test_naimark_dilate_trivial_povm():
    povm = qf.POVM.create([np.eye(2, dtype=complex) / 2] * 2)
    dil = qf.naimark_dilate(povm)
    assert dil.probe_dim == 2
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        probs = qf.dilation_probabilities(rho, dil)
        assert np.abs(probs - 0.5).max() < 1e-10


def test_naimark_dilate_projective_povm_matches_direct_measurement():
    projectors = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    povm = qf.POVM.create(projectors)
    dil = qf.naimark_dilate(povm)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        direct = qf.povm_probabilities(rho, povm)
        assert np.abs(qf.dilation_probabilities(rho, dil) - direct).max() < 1e-10


def test_naimark_dilate_random_povm_contract():
    rng = np.random.default_rng(6)
    povm = random_povm(2, 3, rng)
    dil = qf.naimark_dilate(povm)
    for k in range(3):
        assert np.abs(dil.povm_element(k) - povm.elements[k]).max() < 1e-10
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        direct = qf.povm_probabilities(rho, povm)
        dilated = qf.dilation_probabilities(rho, dil)
        assert np.abs(direct - dilated).max() < 1e-10


def test_naimark_dilation_projector_family():
    rng = np.random.default_rng(7)
    for d, k in [(2, 2), (3, 4), (4, 5)]:
        dil = qf.naimark_dilate(random_povm(d, k, rng))
        total = sum(dil.projectors)
        assert np.abs(total - np.eye(d * k)).max() < 1e-10
        for a in range(k):
            pa = dil.projectors[a]
            assert np.abs(pa @ pa - pa).max() < 1e-10
            for b in range(a + 1, k):
                assert np.abs(pa @ dil.projectors[b]).max() < 1e-10


def test_naimark_dilate_randomized_same_contract_different_unitary():
    rng = np.random.default_rng(8)
    povm = random_povm(2, 3, rng)
    canonical = qf.naimark_dilate(povm)
    randomized = qf.naimark_dilate_randomized(povm, np.random.default_rng(99))
    for k in range(3):
        assert np.abs(randomized.povm_element(k) - povm.elements[k]).max() < 1e-10
    assert np.abs(canonical.vectors - randomized.vectors).max() > 1e-3
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        assert (
            np.abs(
                qf.dilation_probabilities(rho, randomized) - qf.povm_probabilities(rho, povm)
            ).max()
            < 1e-10
        )

