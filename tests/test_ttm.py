import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfluct as qf
from qfluct.errors import ConsistencyError, IllPosedProtocolError, ValidationError
from qfluct.rand import random_density_matrix, random_pure_state

from oracles import merge_atoms_reference
from random_inputs import haar_unitary, random_hermitian, random_observable

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def z_protocol(rho, channel):
    obs = qf.observable_from_hermitian(PAULI_Z)
    return qf.TwoTimeProtocol.create(rho, obs, channel, obs)


def random_protocol(seed, dim=None):
    rng = np.random.default_rng(seed)
    d = dim or int(rng.integers(2, 5))
    rho = random_pure_state(d, rng) if seed % 3 == 0 else random_density_matrix(d, rng)
    a_i = qf.observable_from_hermitian(random_observable(d, rng, degenerate=seed % 2 == 0))
    a_f = qf.observable_from_hermitian(random_observable(d, rng))
    kind = seed % 4
    if kind == 0:
        channel = qf.KrausChannel.create([haar_unitary(d, rng)])
    elif kind == 1:
        channel = qf.depolarizing_channel(float(rng.uniform(0, 1)), d)
    elif kind == 2:
        channel = qf.dephasing_channel(float(rng.uniform(0, 1)), d)
    else:
        channel = qf.amplitude_damping_channel(float(rng.uniform(0, 1)), d)
    return qf.TwoTimeProtocol.create(rho, a_i, channel, a_f)


def test_joint_distribution_commuting_no_evolution():
    rho = np.diag([0.75, 0.25]).astype(complex)
    joint = qf.joint_distribution(z_protocol(rho, qf.identity_channel(2)))
    # branch order is ascending: index 0 is the -1 outcome
    assert abs(joint.probs[0, 0] - 0.25) < 1e-12
    assert abs(joint.probs[1, 1] - 0.75) < 1e-12
    assert abs(joint.probs[0, 1]) < 1e-14 and abs(joint.probs[1, 0]) < 1e-14


def test_joint_distribution_bit_flip_arithmetic():
    q = 0.37
    rho = np.diag([0.75, 0.25]).astype(complex)
    joint = qf.joint_distribution(z_protocol(rho, qf.bit_flip_channel(q)))
    expected = np.array([[0.25 * (1 - q), 0.25 * q], [0.75 * q, 0.75 * (1 - q)]])
    assert np.abs(joint.probs - expected).max() < 1e-12


def test_joint_distribution_back_action_destroys_coherence():
    # measuring z first collapses |+><+| onto a z eigenstate, so repeating
    # the same observable is deterministic given the first outcome ...
    joint = qf.joint_distribution(z_protocol(PLUS, qf.identity_channel(2)))
    assert np.abs(joint.probs - np.eye(2) / 2).max() < 1e-12
    # ... while a final x measurement sees the dephased state: all four 1/4
    x_obs = qf.observable_from_hermitian(PAULI_X)
    protocol = qf.TwoTimeProtocol.create(
        PLUS, qf.observable_from_hermitian(PAULI_Z), qf.identity_channel(2), x_obs
    )
    joint = qf.joint_distribution(protocol)
    assert np.abs(joint.probs - 0.25).max() < 1e-12


def test_joint_distribution_marginal_property():
    for seed in range(6):
        protocol = random_protocol(seed)
        joint = qf.joint_distribution(protocol)
        marginals = joint.probs.sum(axis=1)
        direct = [
            float(np.trace(p @ protocol.initial_state @ p).real)
            for p in protocol.initial_observable.projectors
        ]
        assert np.abs(marginals - direct).max() < 1e-10
        assert abs(joint.total() - 1.0) < 1e-10


def test_joint_distribution_rejects_reachable_infinite_branch():
    a_f = qf.ExtendedObservable.create(
        [(math.inf, np.diag([1.0, 0.0]).astype(complex)), (0.0, np.diag([0.0, 1.0]).astype(complex))]
    )
    protocol = qf.TwoTimeProtocol.create(
        np.diag([1.0, 0.0]).astype(complex),
        qf.observable_from_hermitian(PAULI_Z),
        qf.identity_channel(2),
        a_f,
    )
    with pytest.raises(IllPosedProtocolError, match="ill-posed"):
        qf.joint_distribution(protocol)


def test_joint_distribution_rejects_trace_decreasing_channel():
    # built past KrausChannel.create, whose completeness check would refuse it
    channel = qf.KrausChannel(kraus_ops=(0.9 * np.eye(2, dtype=complex),))
    with pytest.raises(ConsistencyError, match="joint marginal"):
        qf.joint_distribution(z_protocol(PLUS, channel))


def test_verify_ft_does_not_copy_the_kraus_operators():
    # 257 Kraus operators of 16 x 16, 1 MiB together: both routes take one
    # operator at a time, so the traced peak stays far below a stacked copy
    protocol = random_protocol(1, dim=16)  # seed 1: depolarizing
    channel = protocol.channel
    kraus_bytes = sum(k.nbytes for k in channel.kraus_ops)
    assert len(channel.kraus_ops) == 257
    tracemalloc.start()
    try:
        qf.verify_ft(protocol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kraus_bytes / 4, (peak, kraus_bytes)


def test_delta_distribution_single_atom():
    rho = np.diag([0.75, 0.25]).astype(complex)
    delta = qf.delta_a_distribution(qf.joint_distribution(z_protocol(rho, qf.identity_channel(2))))
    assert len(delta.values) == 1
    assert abs(delta.values[0]) < 1e-12 and abs(delta.probs[0] - 1.0) < 1e-12


def test_delta_distribution_bit_flip_atoms():
    rho = np.diag([0.75, 0.25]).astype(complex)
    delta = qf.delta_a_distribution(qf.joint_distribution(z_protocol(rho, qf.bit_flip_channel(0.5))))
    assert np.allclose(delta.values, [-2.0, 0.0, 2.0])
    assert np.allclose(delta.probs, [0.75 * 0.5, 0.5, 0.25 * 0.5])


def test_delta_distribution_shift_case():
    rng = np.random.default_rng(0)
    h = random_hermitian(3, rng)
    dec = qf.spectral_decompose(h)
    weights = rng.dirichlet(np.ones(3))
    rho = (dec.vectors * weights) @ dec.vectors.conj().T  # commutes with h
    c = 0.8
    protocol = qf.TwoTimeProtocol.create(
        rho,
        qf.observable_from_hermitian(h),
        qf.identity_channel(3),
        qf.observable_from_hermitian(h + c * np.eye(3)),
    )
    delta = qf.delta_a_distribution(qf.joint_distribution(protocol))
    assert len(delta.values) == 1
    assert abs(delta.values[0] - c) < 1e-9


def joint_with_final_values(final_values, probs):
    return qf.ttm.JointDistribution(
        np.array([probs], dtype=float), np.zeros(1), np.array(final_values, dtype=float)
    )


def test_merge_chains_neighbours_within_tolerance():
    # neighbours 0.9 tol apart chain into one atom although the ends lie
    # 2.7 tol apart; a gap of 1.1 tol starts a new one
    tol = qf.DEFAULT_TOLS
    step = tol.degeneracy_tol
    joint = joint_with_final_values(
        [0.0, 0.9 * step, 1.8 * step, 2.7 * step, 3.8 * step, math.inf], [0.1, 0.2, 0.3, 0.1, 0.3, 0.0]
    )
    delta = qf.delta_a_distribution(joint)
    reference = merge_atoms_reference([joint], tol)
    assert len(delta.values) == len(reference) == 2
    assert np.allclose(delta.probs, [0.7, 0.3], rtol=0, atol=1e-15)
    assert np.abs(np.array(list(zip(delta.values, delta.probs))) - np.array(reference)).max() <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 4), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 3),
)
def test_merge_atoms_matches_loop_reference(entries, n_joints):
    # final values on a grid of spacing ~tol/2 around a few centres, so
    # chains, gaps, ties and sub-floor clusters all occur
    tol = qf.DEFAULT_TOLS
    values = [c + (0.45 + 0.2 * (j % 2)) * j * tol.degeneracy_tol * max(1, abs(c)) for c, j, _ in entries]
    weights = np.array([w for _, _, w in entries]) + 1e-13
    joints = [
        joint_with_final_values(values, weights / (weights.sum() * n_joints)) for _ in range(n_joints)
    ]
    delta = qf.ttm._merge_atoms(joints, tol)
    reference = np.array(merge_atoms_reference(joints, tol))
    assert delta.values.shape == (len(reference),)
    assert np.abs(delta.values - reference[:, 0]).max() <= 1e-15 * max(1.0, np.abs(reference[:, 0]).max())
    assert np.abs(delta.probs - reference[:, 1]).max() <= 1e-15


def test_characteristic_function_contracts():
    for seed in (1, 2, 3):
        protocol = random_protocol(seed)
        joint = qf.joint_distribution(protocol)
        assert abs(qf.characteristic_function(joint, 0.0) - 1.0) < 1e-10
        g_i = qf.characteristic_function(joint, 1j)
        assert abs(g_i.imag) < 1e-12
        assert abs(g_i.real - qf.efficacy(protocol)) < 1e-9


def test_characteristic_function_single_atom():
    rho = np.diag([0.75, 0.25]).astype(complex)
    c = 1.3
    protocol = qf.TwoTimeProtocol.create(
        rho,
        qf.observable_from_hermitian(PAULI_Z),
        qf.identity_channel(2),
        qf.observable_from_hermitian(PAULI_Z + c * np.eye(2)),
    )
    joint = qf.joint_distribution(protocol)
    for s in (0.5, -1.2, 0.3 + 0.1j):
        assert abs(qf.characteristic_function(joint, s) - np.exp(1j * s * c)) < 1e-10


def test_efficacy_commuting_is_one():
    rng = np.random.default_rng(4)
    h = random_hermitian(3, rng)
    dec = qf.spectral_decompose(h)
    weights = rng.dirichlet(np.ones(3))
    rho = (dec.vectors * weights) @ dec.vectors.conj().T
    obs = qf.observable_from_hermitian(h)
    protocol = qf.TwoTimeProtocol.create(rho, obs, qf.identity_channel(3), obs)
    assert abs(qf.efficacy(protocol) - 1.0) < 1e-10


def test_efficacy_bit_flip_closed_form():
    rho = np.diag([0.75, 0.25]).astype(complex)
    gamma = qf.efficacy(z_protocol(rho, qf.bit_flip_channel(0.5)))
    expected = (3 / 8) * (1 + np.exp(2)) + (1 / 8) * (1 + np.exp(-2))
    assert abs(gamma - expected) < 1e-12


def test_verify_ft_random_protocols():
    for seed in range(20):
        report = qf.verify_ft(random_protocol(seed))
        assert report.identity_error < 1e-9, report
        assert report.jensen_slack > -1e-8, report
        assert report.passed


def test_verify_ft_trivial_protocol():
    rho = np.diag([0.75, 0.25]).astype(complex)
    report = qf.verify_ft(z_protocol(rho, qf.identity_channel(2)))
    assert abs(report.lhs - 1.0) < 1e-12
    assert abs(report.gamma - 1.0) < 1e-12
    assert abs(report.jensen_slack) < 1e-12


def test_verify_ft_qutrit_amplitude_damping():
    rng = np.random.default_rng(5)
    protocol = qf.TwoTimeProtocol.create(
        random_density_matrix(3, rng),
        qf.observable_from_hermitian(random_hermitian(3, rng)),
        qf.amplitude_damping_channel(0.45, 3),
        qf.observable_from_hermitian(random_hermitian(3, rng)),
    )
    assert qf.verify_ft(protocol).identity_error < 1e-9


def test_back_action_consistency():
    for seed in (0, 1, 2):
        protocol = random_protocol(seed)
        joint = qf.joint_distribution(protocol)
        dephased = qf.measurement_channel(
            protocol.initial_state, protocol.initial_observable.measurement()
        )
        protocol2 = qf.TwoTimeProtocol.create(
            dephased, protocol.initial_observable, protocol.channel, protocol.final_observable
        )
        joint2 = qf.joint_distribution(protocol2)
        assert np.abs(joint.probs - joint2.probs).max() < 1e-12


def test_unitary_covariance():
    rng = np.random.default_rng(6)
    protocol = random_protocol(7, dim=3)
    u = haar_unitary(3, rng)
    conj = lambda m: u @ m @ u.conj().T
    a_i = qf.ExtendedObservable.create(
        [(v, conj(p)) for v, p in zip(protocol.initial_observable.values, protocol.initial_observable.projectors)]
    )
    a_f = qf.ExtendedObservable.create(
        [(v, conj(p)) for v, p in zip(protocol.final_observable.values, protocol.final_observable.projectors)]
    )
    channel = qf.KrausChannel.create([conj(k) for k in protocol.channel.kraus_ops])
    rotated = qf.TwoTimeProtocol.create(conj(protocol.initial_state), a_i, channel, a_f)
    base = qf.verify_ft(protocol)
    rot = qf.verify_ft(rotated)
    assert abs(base.gamma - rot.gamma) < 1e-9
    d0 = qf.delta_a_distribution(qf.joint_distribution(protocol))
    d1 = qf.delta_a_distribution(qf.joint_distribution(rotated))
    assert np.abs(d0.values - d1.values).max() < 1e-9
    assert np.abs(d0.probs - d1.probs).max() < 1e-9


def test_jarzynski_constant_hamiltonian():
    h = np.diag([0.4, -0.9, 1.3]).astype(complex)
    _, report = qf.jarzynski_scenario(h, qf.EvolutionProtocol.create([(h, 2.5)]), beta=0.7)
    assert abs(report.exp_neg_beta_work - 1.0) < 1e-10
    assert abs(report.delta_f) < 1e-12
    assert abs(report.mean_work) < 1e-10
    assert report.passed


def test_jarzynski_sudden_quench_closed_form():
    protocol = qf.EvolutionProtocol.create([(2 * PAULI_Z, 0.0)])
    _, report = qf.jarzynski_scenario(PAULI_Z, protocol, beta=1.0)
    expected = np.cosh(2) / np.cosh(1)
    assert abs(report.gamma - expected) < 1e-12
    assert abs(report.exp_neg_beta_work - expected) < 1e-8
    assert report.max_work_slack >= -1e-8
    assert report.passed


def test_jarzynski_sigma_z_to_sigma_x():
    _, report = qf.jarzynski_scenario(
        PAULI_Z, qf.EvolutionProtocol.create([(PAULI_X, 0.0)]), beta=1.0
    )
    # equal spectra: Z_tau = Z_0
    assert abs(report.exp_neg_beta_work - 1.0) < 1e-10
    assert report.mean_work >= 0.0
    # four-outcome enumeration: <W> = 0 - tr(rho_0 sigma_z) = tanh(1)
    assert abs(report.mean_work - np.tanh(1.0)) < 1e-10


def test_jarzynski_gamma_independent_of_discretization():
    rng = np.random.default_rng(8)
    h0 = random_hermitian(3, rng)
    h_tau = random_hermitian(3, rng)
    coarse = qf.EvolutionProtocol.create([(h0, 0.5), (h_tau, 0.5)])
    fine_steps = [(h0 + (h_tau - h0) * (i / 9), 0.1) for i in range(10)]
    fine = qf.EvolutionProtocol.create(fine_steps[:-1] + [(h_tau, 0.1)])
    _, rep_a = qf.jarzynski_scenario(h0, coarse, beta=1.2)
    _, rep_b = qf.jarzynski_scenario(h0, fine, beta=1.2)
    z_ratio = rep_a.z_ratio
    assert abs(rep_a.gamma - z_ratio) < 1e-8
    assert abs(rep_b.gamma - z_ratio) < 1e-8


def test_jarzynski_rejects_nonpositive_beta():
    with pytest.raises(ValidationError, match="positive"):
        qf.jarzynski_scenario(PAULI_Z, qf.EvolutionProtocol.create([(PAULI_Z, 1.0)]), beta=0.0)


def test_protocol_rejects_infinite_initial_observable():
    a_i = qf.ExtendedObservable.create(
        [(math.inf, np.diag([1.0, 0.0]).astype(complex)), (0.0, np.diag([0.0, 1.0]).astype(complex))]
    )
    with pytest.raises(ValidationError, match="finite"):
        qf.TwoTimeProtocol.create(
            np.eye(2, dtype=complex) / 2, a_i, qf.identity_channel(2), a_i
        )


def test_gibbs_state_shifts_large_energies():
    # exp(-beta E) overflows for E = -800 and underflows to 0 for E >= 800;
    # shifted by the ground energy, both states come out finite and exact.
    for energies, log_z in (
        ([-800.0, 0.0], 800.0),
        ([800.0, 801.0], -800.0 + math.log1p(math.exp(-1.0))),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, z, shift = qf.ttm.gibbs_state(np.diag(energies).astype(complex), 1.0)
        weights = np.exp(-(np.array(energies) - energies[0]))
        assert np.abs(rho - np.diag(weights / weights.sum())).max() <= 1e-15
        assert abs(shift + math.log(z) - log_z) <= 1e-12 * abs(log_z)


def test_gibbs_state_moderate_energies_are_unshifted():
    rho, z, shift = qf.ttm.gibbs_state(PAULI_Z, 1.0)
    assert shift == 0.0
    assert z == math.exp(-1.0) + math.exp(1.0)


def test_jarzynski_shifted_partition_functions_closed_form():
    # beta E_min = 300 takes the shifted branch; the ratio and dF follow
    # from ln Z_tau - ln Z_0
    h0 = np.diag([300.0, 301.0]).astype(complex)
    h_tau = np.diag([300.5, 302.0]).astype(complex)
    _, report = qf.jarzynski_scenario(h0, qf.EvolutionProtocol.create([(h_tau, 0.0)]), beta=1.0)
    ratio = math.exp(-0.5) * (1 + math.exp(-1.5)) / (1 + math.exp(-1.0))
    assert abs(report.z_ratio - ratio) <= 1e-12 * ratio
    assert abs(report.delta_f + math.log(ratio)) <= 1e-12
    assert abs(report.z0 / (math.exp(-300.0) * (1 + math.exp(-1.0))) - 1.0) <= 1e-12
    assert report.passed


def test_jarzynski_unrepresentable_partition_function_raises():
    for energies in ([800.0, 801.0], [-800.0, -799.0]):
        h = np.diag(energies).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="Z_0"):
                qf.jarzynski_scenario(h, qf.EvolutionProtocol.create([(h, 0.0)]), beta=1.0)


def test_joint_blocks_judge_the_leak_on_the_weighted_sum():
    # On its own, the leaky block puts 1/2 on its +infinity branch.  In a
    # direct sum it is judged by its weighted share, summed over blocks.
    a_f = qf.ExtendedObservable.create(
        [(math.inf, np.diag([1.0, 0.0]).astype(complex)), (0.0, np.diag([0.0, 1.0]).astype(complex))]
    )
    leaky = qf.TwoTimeProtocol.create(
        np.eye(2, dtype=complex) / 2, qf.observable_from_hermitian(PAULI_Z), qf.identity_channel(2), a_f
    )
    clean = z_protocol(np.diag([1.0, 0.0]).astype(complex), qf.identity_channel(2))
    joints = qf.ttm._joint_blocks([clean, leaky], [1 - 1e-12, 1e-12], qf.DEFAULT_TOLS)
    assert abs(joints[1].probs[:, -1].sum() - 5e-13) <= 1e-25
    with pytest.raises(IllPosedProtocolError, match="ill-posed"):
        qf.ttm._joint_blocks([clean, leaky, leaky], [1 - 3e-12, 1.5e-12, 1.5e-12], qf.DEFAULT_TOLS)
