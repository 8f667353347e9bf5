import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfluct as qf
from qfluct.errors import ConsistencyError, IllPosedProtocolError, ValidationError
from qfluct.rand import random_density_matrix, random_pure_state
from qfluct.ttm import Check

from oracles import merge_atoms_reference, projectors
from random_inputs import haar_kraus, haar_unitary, random_hermitian, random_observable
from word_blocks import direct_sum, per_word

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
            for p in projectors(protocol.initial_observable)
        ]
        assert np.abs(marginals - direct).max() < 1e-10
        assert abs(joint.probs.sum() - 1.0) < 1e-10


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


def assert_verify_ft_does_not_copy_the_kraus_operators(protocol):
    # 257 Kraus operators of 16 x 16, 1 MiB together: both routes take a
    # bounded chunk of the dense ones at a time, so the traced peak stays far
    # below a stacked copy
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


def test_verify_ft_does_not_copy_the_kraus_operators():
    # seed 1 is depolarizing: one dense operator and 256 matrix units
    assert_verify_ft_does_not_copy_the_kraus_operators(random_protocol(1, dim=16))


def test_verify_ft_does_not_copy_a_dense_kraus_set():
    rng = np.random.default_rng(16)
    assert_verify_ft_does_not_copy_the_kraus_operators(
        qf.TwoTimeProtocol.create(
            random_density_matrix(16, rng),
            qf.observable_from_hermitian(random_observable(16, rng)),
            qf.KrausChannel.create(haar_kraus(257, 16, rng)),
            qf.observable_from_hermitian(random_observable(16, rng)),
        )
    )


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
    deltas = np.concatenate([(joint.final_values - joint.initial_values[:, None]).ravel() for joint in joints])
    delta = qf.ttm._merge_atoms(deltas, np.concatenate([joint.probs.ravel() for joint in joints]), tol)
    reference = np.array(merge_atoms_reference(joints, tol))
    assert delta.values.shape == (len(reference),)
    assert np.abs(delta.values - reference[:, 0]).max() <= 1e-15 * max(1.0, np.abs(reference[:, 0]).max())
    assert np.abs(delta.probs - reference[:, 1]).max() <= 1e-15


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


def test_checks_pass_at_their_threshold():
    assert Check.at_most("x", 1e-9, 1e-9).passed
    assert Check.at_least("x", -1e-8, -1e-8).passed
    assert not Check.at_most("x", math.nextafter(1e-9, 1.0), 1e-9).passed
    assert not Check.at_least("x", math.nextafter(-1e-8, -1.0), -1e-8).passed
    assert not Check.at_most("x", math.nan, 1.0).passed
    check = Check.at_least("x", np.float64(0.5), np.float64(0.25))
    assert (type(check.value), type(check.threshold), type(check.passed)) == (float, float, bool)


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
            protocol.initial_state, protocol.initial_observable
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
        [(v, conj(p)) for v, p in zip(protocol.initial_observable.values, projectors(protocol.initial_observable))]
    )
    a_f = qf.ExtendedObservable.create(
        [(v, conj(p)) for v, p in zip(protocol.final_observable.values, projectors(protocol.final_observable))]
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


@pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf])
def test_jarzynski_rejects_non_finite_beta(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="beta must be positive and finite"):
            qf.jarzynski_scenario(PAULI_Z, qf.EvolutionProtocol.create([(PAULI_Z, 1.0)]), beta=beta)


@pytest.mark.parametrize("beta", ["hot", None])
def test_jarzynski_rejects_a_non_numeric_beta(beta):
    with pytest.raises(ValidationError, match="inverse temperature beta must be a real number"):
        qf.jarzynski_scenario(PAULI_Z, qf.EvolutionProtocol.create([(PAULI_Z, 1.0)]), beta=beta)


def test_gibbs_state_rejects_overflowing_beta_energy_products():
    # beta (E_max - E_min) = 2e308 overflows; so does beta E = 1e310 with
    # no spread at all
    for energies, beta in (([-1.0, 1.0], 1e308), ([1e300, 1e300], 1e10)):
        h = np.diag(energies).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="beta = .* must be finite doubles"):
                qf.jarzynski_scenario(h, qf.EvolutionProtocol.create([(h, 0.0)]), beta=beta)


def test_protocol_rejects_infinite_initial_observable():
    a_i = qf.ExtendedObservable.create(
        [(math.inf, np.diag([1.0, 0.0]).astype(complex)), (0.0, np.diag([0.0, 1.0]).astype(complex))]
    )
    with pytest.raises(ValidationError, match="finite"):
        qf.TwoTimeProtocol.create(
            np.eye(2, dtype=complex) / 2, a_i, qf.identity_channel(2), a_i
        )


def test_gibbs_state_shifts_large_energies():
    # exp(-beta E) overflows for E = -710 and underflows to 0 for E >= 746;
    # shifted by the ground energy, the weights lie in (0, 1].  At +-700,
    # the largest energies whose Z is a finite double, the state is exact
    # and ln Z follows from the shifted sum.
    for energies, log_z in (
        ([-700.0, 0.0], 700.0 + math.log1p(math.exp(-700.0))),
        ([700.0, 701.0], -700.0 + math.log1p(math.exp(-1.0))),
    ):
        h = np.diag(energies).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two_time, report = qf.jarzynski_scenario(h, qf.EvolutionProtocol.create([(h, 0.0)]), 1.0)
        weights = np.exp(-(np.array(energies) - energies[0]))
        assert np.abs(two_time.initial_state - np.diag(weights / weights.sum())).max() <= 1e-15
        assert abs(math.log(report.z0) - log_z) <= 1e-12 * abs(log_z)
        assert report.passed


def test_gibbs_state_partition_function_of_pauli_z():
    _, report = qf.jarzynski_scenario(PAULI_Z, qf.EvolutionProtocol.create([(PAULI_Z, 0.0)]), 1.0)
    z = math.exp(-1.0) + math.exp(1.0)
    assert abs(report.z0 - z) <= 1e-15 * z
    assert report.z_tau == report.z0
    assert report.z_ratio == 1.0 and report.delta_f == 0.0


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
    blocks = direct_sum([clean, leaky], [1 - 1e-12, 1e-12])
    joints = per_word(blocks, qf.ttm._joint_blocks(blocks, qf.DEFAULT_TOLS))
    assert abs(joints[1][:, -1].sum() - 5e-13) <= 1e-25
    blocks = direct_sum([clean, leaky, leaky], [1 - 3e-12, 1.5e-12, 1.5e-12])
    with pytest.raises(IllPosedProtocolError, match="ill-posed"):
        qf.ttm._joint_blocks(blocks, qf.DEFAULT_TOLS)


def test_jarzynski_rejects_mismatched_h0_dimension():
    protocol = qf.EvolutionProtocol.create([(np.eye(3, dtype=complex), 1.0)])
    with pytest.raises(ValidationError, match="protocol dimensions disagree: \\[2, 3\\]"):
        qf.jarzynski_scenario(PAULI_Z, protocol, beta=1.0)


def count_eigh(monkeypatch):
    """Wrap np.linalg.eigh and eigvalsh; returns the list of argument shapes
    of each, appended to on every call."""
    shapes = {"eigh": [], "eigvalsh": []}
    for name in shapes:
        def wrapped(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            shapes[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    return shapes


def test_jarzynski_decomposes_every_hamiltonian_once(monkeypatch):
    # the protocol decomposes its three steps in one stacked eigh when it is
    # created; each Jarzynski call decomposes h0 alone, and the Gibbs state,
    # both observables, both partition functions and the unitary all come
    # from that and the protocol's spectra; the unitary is the protocol's own
    rng = np.random.default_rng(17)
    h0 = random_hermitian(4, rng)
    steps = [(random_hermitian(4, rng), 0.4) for _ in range(3)]
    shapes = count_eigh(monkeypatch)
    protocol = qf.EvolutionProtocol.create(steps)
    assert shapes == {"eigh": [(3, 4, 4)], "eigvalsh": []}
    for _ in range(2):
        shapes["eigh"].clear()
        _, report = qf.jarzynski_scenario(h0, protocol, beta=1.0)
        assert report.passed
        assert shapes == {"eigh": [(1, 4, 4)], "eigvalsh": []}
    shapes["eigh"].clear()
    qf.unitary_from_protocol(protocol)
    assert shapes == {"eigh": [], "eigvalsh": []}


def test_a_beta_sweep_decomposes_the_steps_once(monkeypatch):
    # five temperatures on one protocol: the steps are decomposed once in
    # all, and each report is bit-identical to one from a fresh protocol
    rng = np.random.default_rng(23)
    h0 = random_hermitian(5, rng)
    steps = [(random_hermitian(5, rng), float(rng.uniform(0.1, 1.0))) for _ in range(3)]
    betas = (0.3, 0.7, 1.0, 1.6, 2.5)
    fresh = [repr(qf.jarzynski_scenario(h0, qf.EvolutionProtocol.create(steps), b)[1]) for b in betas]
    shapes = count_eigh(monkeypatch)
    protocol = qf.EvolutionProtocol.create(steps)
    swept = [repr(qf.jarzynski_scenario(h0, protocol, b)[1]) for b in betas]
    assert swept == fresh
    assert shapes["eigh"] == [(3, 5, 5)] + [(1, 5, 5)] * len(betas)


def test_a_raw_protocol_with_a_non_hermitian_step_names_the_step():
    # the raw constructor skips create's checks; the first use of the
    # protocol's spectra runs them, and so does every later use
    bad = np.array([[1.0, 0.5], [0.0, -1.0]], dtype=complex)
    protocol = qf.EvolutionProtocol(steps=((PAULI_Z, 0.2), (bad, 0.3)))
    for _ in range(2):
        with pytest.raises(ValidationError, match="step 1 is not Hermitian"):
            qf.jarzynski_scenario(PAULI_X, protocol, beta=1.0)
        with pytest.raises(ValidationError, match="step 1 is not Hermitian"):
            qf.unitary_from_protocol(protocol)


def test_a_protocol_keeps_its_steps_and_unitary_read_only():
    # the cached spectra and unitary cannot go stale: the stored steps and
    # the unitary are the protocol's own read-only arrays
    h = PAULI_Z + 0.5 * PAULI_X
    protocol = qf.EvolutionProtocol.create([(h, 0.3), (PAULI_X, 0.2)])
    assert protocol.steps[0][0] is not h
    with pytest.raises(ValueError, match="read-only"):
        protocol.steps[0][0][0, 0] = 2.0
    u = qf.unitary_from_protocol(protocol).kraus_ops[0]
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0
    assert qf.unitary_from_protocol(protocol).kraus_ops[0] is u
    h[0, 0] = 7.0  # the caller's array stays writable and is not the step
    assert protocol.steps[0][0][0, 0] == 1.0


def test_a_raw_protocol_keeps_its_own_copies():
    # the raw constructor copies and freezes the step matrices as create
    # does, so writing to the caller's matrix after a first use leaves the
    # cached spectra and unitary right: a later Jarzynski report equals
    # one from a fresh protocol of the original steps
    h = PAULI_Z + 0.5 * PAULI_X
    step = h.copy()
    protocol = qf.EvolutionProtocol(steps=((PAULI_X, 0.2), (step, 0.3)))
    first = repr(qf.jarzynski_scenario(PAULI_X, protocol, beta=1.0)[1])
    step[:] = 7.0 * PAULI_X
    fresh = qf.EvolutionProtocol.create([(PAULI_X, 0.2), (h, 0.3)])
    assert repr(qf.jarzynski_scenario(PAULI_X, protocol, beta=1.0)[1]) == first
    assert first == repr(qf.jarzynski_scenario(PAULI_X, fresh, beta=1.0)[1])
    with pytest.raises(ValueError, match="read-only"):
        protocol.steps[1][0][0, 0] = 2.0


def test_jarzynski_identity_is_relative_to_z_ratio():
    # Z_tau/Z_0 = 7.50e10: an absolute check would read 3.05e-5 here and
    # fail, although lhs agrees with the ratio to rounding
    h_tau = np.diag([-25.0, -24.0]).astype(complex) + 0.3 * PAULI_X
    _, report = qf.jarzynski_scenario(
        np.diag([0.0, 1.0]).astype(complex), qf.EvolutionProtocol.create([(h_tau, 0.0)]), beta=1.0
    )
    assert abs(report.z_ratio / 7.50e10 - 1.0) < 1e-3
    assert report.identity_error <= 1e-15
    assert report.passed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    n_steps=st.integers(1, 3),
    beta=st.floats(0.2, 2.0),
    shift=st.floats(-40.0, 40.0),
    shift_h0=st.booleans(),
)
def test_verdicts_do_not_depend_on_the_energy_zero(seed, dim, n_steps, beta, shift, shift_h0):
    # adding c to h0 or to h_tau multiplies both sides of each identity by
    # the same factor e^{-+beta c}, and leaves both bounds as they are
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(dim, rng)
    steps = [(random_hermitian(dim, rng), float(rng.uniform(0.0, 1.0))) for _ in range(n_steps)]
    _, plain = qf.jarzynski_scenario(h0, qf.EvolutionProtocol.create(steps), beta)
    offset = shift * np.eye(dim)
    if shift_h0:
        h0 = h0 + offset
    else:
        steps[-1] = (steps[-1][0] + offset, steps[-1][1])
    _, shifted = qf.jarzynski_scenario(h0, qf.EvolutionProtocol.create(steps), beta)
    assert [c.passed for c in shifted.checks] == [c.passed for c in plain.checks]
    assert abs(shifted.identity_error - plain.identity_error) <= 1e-12
    assert abs(shifted.ft.identity_error - plain.ft.identity_error) <= 1e-12
