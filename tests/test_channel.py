import math

import numpy as np
import pytest
from scipy.linalg import expm

import qfluct as qf
from qfluct.errors import ValidationError
from qfluct.rand import random_density_matrix

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
STANDARD_CHANNELS = (
    qf.depolarizing_channel,
    qf.dephasing_channel,
    qf.bit_flip_channel,
    qf.amplitude_damping_channel,
)


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(3, rng)
    out = qf.apply_channel(qf.identity_channel(3), rho)
    assert np.abs(out - rho).max() == 0.0


def test_apply_full_depolarizing():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        rho = random_density_matrix(d, rng)
        out = qf.apply_channel(qf.depolarizing_channel(1.0, d), rho)
        assert np.abs(out - np.eye(d) / d).max() < 1e-12


def test_apply_bit_flip_half():
    rho = np.diag([0.75, 0.25]).astype(complex)
    out = qf.apply_channel(qf.bit_flip_channel(0.5), rho)
    # direct 2x2 arithmetic: (rho + X rho X)/2
    expected = (rho + PAULI_X @ rho @ PAULI_X) / 2
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12
    assert np.abs(out - expected).max() < 1e-12


def test_kraus_channel_create_rejects_incomplete():
    with pytest.raises(ValidationError, match="completeness"):
        qf.KrausChannel.create([0.5 * np.eye(2, dtype=complex)])


def test_unitary_from_protocol_single_diagonal_step():
    h = np.diag([1.0, -2.0]).astype(complex)
    ch = qf.unitary_from_protocol(qf.EvolutionProtocol.create([(h, 0.7)]))
    expected = np.diag(np.exp(-1j * np.array([1.0, -2.0]) * 0.7))
    assert np.abs(ch.kraus_ops[0] - expected).max() < 1e-12


def test_unitary_from_protocol_commuting_steps():
    h = np.diag([0.5, -1.5]).astype(complex)
    ch = qf.unitary_from_protocol(qf.EvolutionProtocol.create([(h, 0.3), (2 * h, 0.4)]))
    combined = expm(-1j * (h * 0.3 + 2 * h * 0.4))
    assert np.abs(ch.kraus_ops[0] - combined).max() < 1e-12


def test_unitary_from_protocol_non_commuting_vs_trotter():
    steps = [(PAULI_Z, 0.6), (PAULI_X, 0.8)]
    ch = qf.unitary_from_protocol(qf.EvolutionProtocol.create(steps))
    direct = expm(-1j * PAULI_X * 0.8) @ expm(-1j * PAULI_Z * 0.6)
    assert np.abs(ch.kraus_ops[0] - direct).max() < 1e-12
    # fine-grained Trotter refinement of the same piecewise protocol
    slices = 10_000
    u = np.eye(2, dtype=complex)
    for h, t in steps:
        step = expm(-1j * h * (t / slices))
        for _ in range(slices):
            u = step @ u
    assert np.abs(ch.kraus_ops[0] - u).max() < 1e-9


def test_standard_channels_are_tcp():
    rng = np.random.default_rng(3)
    for factory in STANDARD_CHANNELS:
        for q in (0.0, 0.3, 1.0):
            for d in (2, 3):
                ch = factory(q, d)
                rho = random_density_matrix(d, rng)
                out = qf.apply_channel(ch, rho)
                assert abs(float(np.trace(out).real) - 1.0) < 1e-12
                assert float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0]) > -1e-12


def test_depolarizing_zero_is_identity():
    ch = qf.depolarizing_channel(0.0, 2)
    rng = np.random.default_rng(4)
    rho = random_density_matrix(2, rng)
    assert np.abs(qf.apply_channel(ch, rho) - rho).max() < 1e-12


def test_full_dephasing_kills_coherence():
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = qf.apply_channel(qf.dephasing_channel(1.0), plus)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_amplitude_damping_action():
    for q in (0.2, 0.7):
        ch = qf.amplitude_damping_channel(q)
        out = qf.apply_channel(ch, np.diag([0.0, 1.0]).astype(complex))
        expected = np.diag([q, 1 - q])
        assert np.abs(out - expected).max() < 1e-12


def test_standard_channel_rejects_bad_strength():
    for factory in STANDARD_CHANNELS:
        for q in (-0.1, 1.5):
            with pytest.raises(ValidationError, match="outside"):
                factory(q)


def test_protocol_unitarity_invariant():
    rng = np.random.default_rng(5)
    for _ in range(5):
        steps = [
            ((lambda g: (g + g.conj().T) / 2)(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))), float(rng.uniform(0, 2)))
            for _ in range(3)
        ]
        ch = qf.unitary_from_protocol(qf.EvolutionProtocol.create(steps))
        u = ch.kraus_ops[0]
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-10


def test_protocol_rejects_negative_duration():
    with pytest.raises(ValidationError, match="negative"):
        qf.EvolutionProtocol.create([(PAULI_Z, -0.1)])


@pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
def test_protocol_rejects_non_finite_duration(duration):
    with pytest.raises(ValidationError, match="step 1 duration .* is not finite"):
        qf.EvolutionProtocol.create([(PAULI_Z, 0.5), (PAULI_Z, duration)])


@pytest.mark.parametrize("duration", ["soon", None, 1j])
def test_protocol_rejects_a_non_numeric_duration(duration):
    with pytest.raises(ValidationError, match="step 1 duration must be a real number"):
        qf.EvolutionProtocol.create([(PAULI_Z, 0.5), (PAULI_Z, duration)])


@pytest.mark.parametrize(
    "build", [qf.identity_channel, lambda dim: qf.depolarizing_channel(0.3, dim)], ids=["identity", "depolarizing"]
)
@pytest.mark.parametrize("dim", [0, -1, 2.0, True])
def test_standard_channels_reject_a_dimension_that_is_not_a_positive_integer(build, dim):
    with pytest.raises(ValidationError, match=f"dim must be a positive integer, got {dim!r}"):
        build(dim)


@pytest.mark.parametrize(
    "build",
    [
        lambda m: qf.KrausChannel.create([m]),
        lambda m: qf.Ensemble.create([1.0], [m]),
        lambda m: qf.POVM.create([m]),
        qf.observable_from_hermitian,
    ],
    ids=["kraus", "ensemble", "povm", "observable"],
)
def test_a_zero_by_zero_matrix_is_a_validation_error(build):
    with pytest.raises(ValidationError, match=r"expected a non-empty square matrix, got shape \(0, 0\)"):
        build(np.zeros((0, 0)))


def test_step_phase_must_be_a_finite_double():
    # E t = 2e308 overflows; 1e308 is a finite phase, and exp(-i E t) is exact
    protocol = qf.EvolutionProtocol.create([(2 * PAULI_Z, 1e308)])
    with pytest.raises(ValidationError, match="step of duration 1e\\+308"):
        qf.unitary_from_protocol(protocol)
    # an infinite duration, which EvolutionProtocol.create rejects, is
    # caught by the phase check too
    with pytest.raises(ValidationError, match="not a finite double"):
        qf.unitary_from_protocol(qf.EvolutionProtocol(steps=((PAULI_Z, math.inf),)))
    u = qf.unitary_from_protocol(qf.EvolutionProtocol.create([(PAULI_Z, 1e308)])).kraus_ops[0]
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-15
