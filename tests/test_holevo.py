import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qfluct as qf
import qfluct.holevo as holevo
from qfluct.errors import ConsistencyError, ValidationError
from qfluct.holevo import STATE_KINDS, _ascend
from qfluct.rand import complex_gaussian, normalized_blocks, random_density_matrix, random_povm, random_pure_state

from oracles import (
    build_joint_state,
    composite_reference,
    compressed_exponents,
    enumeration_oracle,
    equality_residual_reference,
    naimark_dilate_randomized,
    partial_trace,
    proj,
    projectors,
    reference_ascent,
    relative_cutoff,
    stationarity_defects,
)

KET0 = np.array([1, 0], dtype=complex)
KETP = np.array([1, 1], dtype=complex) / np.sqrt(2)
P0 = np.outer(KET0, KET0.conj())
PPLUS = np.outer(KETP, KETP.conj())
Z_POVM_ELEMENTS = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]

I_CLOSED = 0.5 * math.log(4 / 3) + 0.25 * math.log(2 / 3) + 0.25 * math.log(2)
_x = (1 + 1 / math.sqrt(2)) / 2
CHI_CLOSED = -_x * math.log(_x) - (1 - _x) * math.log(1 - _x)


def zero_plus_instance():
    ens = qf.Ensemble.create([0.5, 0.5], [P0, PPLUS])
    return qf.CqChannelInstance.create(ens, qf.POVM.create(Z_POVM_ELEMENTS))


def orthogonal_instance():
    ens = qf.Ensemble.create([0.5, 0.5], [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    return qf.CqChannelInstance.create(ens, qf.POVM.create(Z_POVM_ELEMENTS))


def identical_states_instance(seed=0):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(2, rng)
    ens = qf.Ensemble.create([0.3, 0.7], [rho, rho.copy()])
    return qf.CqChannelInstance.create(ens, random_povm(2, 3, rng))


@st.composite
def word_kind_cases(draw):
    """d = 1..4 and one to four words, each pure, rank-deficient or mixed
    (full rank), with Dirichlet priors and a Gaussian-block POVM."""
    d = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(("pure", "rank_deficient", "mixed")), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [
        random_density_matrix(d, rng, rank=int(rng.integers(1, d)))
        if kind == "rank_deficient" and d > 1
        else random_pure_state(d, rng) if kind == "pure" else random_density_matrix(d, rng)
        for kind in kinds
    ]
    ens = qf.Ensemble.create(rng.dirichlet(np.ones(len(kinds))), states)
    return qf.CqChannelInstance.create(ens, random_povm(d, draw(st.integers(1, 4)), rng))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word_kind_cases())
@example(orthogonal_instance())
@example(identical_states_instance())
def test_equality_residual_matches_the_per_word_eigh_reference(inst):
    rep = qf.analyze(inst, strict=False)
    assert abs(rep.equality_residual - equality_residual_reference(inst, rep.gamma)) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word_kind_cases())
def test_log_weights_rebuild_each_word_on_the_initial_columns(inst):
    # rho_j = V diag(e^ell) V† with V = blocks.initial.vectors[j], and the
    # initial branch value of each column is -ell on supp rho_j, 0 off it
    internals = qf.prepare_instance(inst)
    initial, ell = internals.blocks.initial, internals.log_weights
    assert ell.shape == (inst.ensemble.n_words, inst.ensemble.dim)
    for j, rho in enumerate(inst.ensemble.states):
        v = initial.vectors[j]
        assert np.abs((v * np.exp(ell[j])) @ v.conj().T - rho).max() <= 1e-12
        a_i = np.where(np.isfinite(ell[j]), -ell[j], 0.0)
        assert np.abs(initial.values[initial.labels[j]] - a_i).max() <= qf.DEFAULT_TOLS.degeneracy_tol


def test_ensemble_strips_zero_priors():
    ens = qf.Ensemble.create([0.5, 0.0, 0.5], [P0, PPLUS, PPLUS])
    assert ens.n_words == 2
    assert np.allclose(ens.priors, [0.5, 0.5])


def test_ensemble_rejects_bad_priors():
    with pytest.raises(ValidationError, match="sum"):
        qf.Ensemble.create([0.6, 0.5], [P0, PPLUS])
    with pytest.raises(ValidationError, match="negative"):
        qf.Ensemble.create([1.2, -0.2], [P0, PPLUS])
    for priors, states in (
        ([], []),
        ("half", [P0]),
        ([[0.5], [0.5]], [P0, PPLUS]),
        (["0.5", "0.5"], [P0, PPLUS]),
        ([[0.5], [0.25, 0.25]], [P0, PPLUS]),
    ):
        with pytest.raises(ValidationError, match="flat list of real numbers"):
            qf.Ensemble.create(priors, states)
    with pytest.raises(ValidationError, match="finite"):
        qf.Ensemble.create([1.0, math.nan], [P0, PPLUS])


def test_ensemble_state_checks_name_the_failing_state():
    # one Hermiticity, PSD and trace pass over the stacked states, zero-prior
    # words included; an error names the state by its index in the input
    for state, match in (
        ([[0.5, 0.1], [0.3, 0.5]], "state 1 is not Hermitian"),
        ([[0.5, 0.6], [0.6, 0.5]], "state 1 has negative eigenvalue"),
        (np.diag([0.7, 0.2]), "state 1 trace 0.8999"),
    ):
        with pytest.raises(ValidationError, match=match):
            qf.Ensemble.create([0.5, 0.0, 0.5], [P0, np.asarray(state, dtype=complex), PPLUS])
    # the states are stacked before zero-prior words are dropped, so a
    # zero-prior state of another dimension is malformed input too
    for priors in ([0.5, 0.5], [1.0, 0.0]):
        with pytest.raises(ValidationError, match="ensemble states have mixed dimensions"):
            qf.Ensemble.create(priors, [P0, np.eye(3, dtype=complex) / 3])


def test_ensemble_error_quotes_the_priors_as_given():
    # numpy coerces [0.5, "x"] to strings; the message quotes the input
    with pytest.raises(ValidationError) as info:
        qf.Ensemble.create([0.5, "x"], [P0, PPLUS])
    assert str(info.value) == "priors must be a non-empty flat list of real numbers, got [0.5, 'x']"


def test_conditional_probabilities_patterns():
    assert np.abs(
        qf.conditional_probabilities(orthogonal_instance()) - np.eye(2)
    ).max() < 1e-12
    inst = identical_states_instance()
    cond = qf.conditional_probabilities(inst)
    assert np.abs(cond[0] - cond[1]).max() < 1e-12
    cond = qf.conditional_probabilities(zero_plus_instance())
    assert np.abs(cond - [[1.0, 0.0], [0.5, 0.5]]).max() < 1e-12


def test_conditional_probability_checks_guard_analyze():
    # the raw Ensemble constructor skips validation, as a corrupted instance would
    z_povm = qf.POVM.create(Z_POVM_ELEMENTS)
    for state, error, match in (
        (np.diag([1.5, -0.5]), ValidationError, "conditional probability"),
        (np.diag([0.7, 0.2]), ConsistencyError, "conditional row 0"),
    ):
        ens = qf.Ensemble(priors=np.array([1.0]), states=(state.astype(complex),))
        with pytest.raises(error, match=match):
            qf.analyze(qf.CqChannelInstance(ensemble=ens, povm=z_povm), strict=False)


def test_dropped_outcome_overlap_is_a_report_failure():
    # prob_floor drops cond = 1e-12 for word 0, yet rank_tol keeps the
    # eigenvalue 1e-12 in its support: the dropped outcome overlaps it fully
    eps = 1e-12
    ens = qf.Ensemble.create([0.5, 0.5], [np.diag([1 - eps, eps]).astype(complex), PPLUS])
    inst = qf.CqChannelInstance.create(ens, qf.POVM.create(Z_POVM_ELEMENTS))
    failures = qf.analyze(inst, strict=False).failures()
    assert [(c.name, c.value, c.threshold) for c in failures] == [("dropped_outcome_overlap", 1.0, 1e-8)]
    with pytest.raises(ConsistencyError, match="dropped_outcome_overlap"):
        qf.analyze(inst)


def test_trace_route_is_formed_in_each_observables_eigenbasis():
    # rho_0 = (1 - eps)|b><b| + eps|a><a| and rho_1 = I - rho_0 measured in
    # {|a>, |b>}: exp(A_i) reaches 1/eps, so the trace route must not
    # multiply M_i(rho) and exp(A_i) in the computational basis, where the
    # O(1e-16) rounding between the two branches is scaled by 1e11.  A
    # 60-digit mpmath evaluation on the same float inputs gives
    # gamma = 1.0000000000000007.
    eps = 1e-11
    a = np.array([math.cos(0.7), math.sin(0.7)], dtype=complex)
    b = np.array([-math.sin(0.7), math.cos(0.7)], dtype=complex)
    pa, pb = np.outer(a, a.conj()), np.outer(b, b.conj())
    rho0 = (1 - eps) * pb + eps * pa
    ens = qf.Ensemble.create([0.5, 0.5], [rho0, np.eye(2) - rho0])
    report = qf.analyze(qf.CqChannelInstance.create(ens, qf.POVM.create([pa, pb])), strict=True)
    assert abs(report.gamma_trace - 1.0000000000000007) <= 1e-15
    assert report.route_error <= 1e-15


def test_mutual_information_cases():
    assert qf.mutual_information(identical_states_instance()) < 1e-12
    assert abs(qf.mutual_information(orthogonal_instance()) - math.log(2)) < 1e-12
    assert abs(qf.mutual_information(zero_plus_instance()) - I_CLOSED) < 1e-12


def test_mutual_information_decomposition():
    rep = qf.analyze(orthogonal_instance())
    assert abs(rep.shannon - math.log(2)) < 1e-12
    assert abs(rep.conditional_term) < 1e-12
    rep = qf.analyze(identical_states_instance())
    assert abs(rep.conditional_term + rep.shannon) < 1e-12  # posterior equals prior
    inst = qf.random_instance(2, 3, 3, seed=11)
    rep = qf.analyze(inst)
    assert abs((rep.shannon + rep.conditional_term) - qf.mutual_information(inst)) < 1e-10


def test_holevo_chi_cases():
    assert abs(qf.holevo_chi(orthogonal_instance().ensemble) - math.log(2)) < 1e-12
    assert qf.holevo_chi(identical_states_instance().ensemble) < 1e-12
    assert abs(qf.holevo_chi(zero_plus_instance().ensemble) - CHI_CLOSED) < 1e-12


def test_build_joint_state_properties():
    inst = zero_plus_instance()
    rho0 = build_joint_state(inst.ensemble, inst.povm)
    assert rho0.shape == (8, 8)
    assert abs(float(np.trace(rho0).real) - 1.0) < 1e-12
    assert float(np.linalg.eigvalsh(rho0)[0]) > -1e-12
    # partial trace over probe and message recovers the average state
    reduced = partial_trace(rho0, [2, 2, 2], keep=[0])
    assert np.abs(reduced - inst.ensemble.average_state()).max() < 1e-12


def test_build_joint_state_single_word():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(2, rng)
    ens = qf.Ensemble.create([1.0], [rho])
    povm = random_povm(2, 2, rng)
    rho0 = build_joint_state(ens, povm)
    probe0 = np.zeros((2, 2), dtype=complex)
    probe0[0, 0] = 1.0
    assert np.abs(rho0 - qf.kron(rho, probe0, np.eye(1))).max() < 1e-12


def test_build_observables_single_word_trivial():
    rng = np.random.default_rng(2)
    ens = qf.Ensemble.create([1.0], [random_density_matrix(2, rng)])
    povm = random_povm(2, 3, rng)
    rep = qf.analyze(qf.CqChannelInstance.create(ens, povm))
    assert abs(rep.mean_delta_a) < 1e-10
    assert abs(rep.gamma - 1.0) < 1e-10
    assert abs(rep.mutual_information) < 1e-12
    assert abs(rep.chi) < 1e-12


def test_build_observables_perfect_discrimination_single_atom():
    rep = qf.analyze(orthogonal_instance())
    values = [v for v, p in rep.atoms if p > 1e-12]
    assert len(values) == 1
    assert abs(values[0]) < 1e-10


def column_values(branches, j):
    """The branch value of each column of observable j of a stack."""
    return branches.values[branches.labels[j]]


def finite_part(branches, j):
    """Sum of value * projector over the finite branches of observable j."""
    values = column_values(branches, j)
    finite = np.isfinite(values)
    cols = branches.vectors[j][:, finite]
    return (cols * values[finite]) @ cols.conj().T


def test_mean_identity_on_random_instances():
    for seed in range(10):
        inst = qf.random_instance(2 + seed % 2, 1 + seed % 3, 2 + seed % 3, seed=seed)
        blocks = qf.prepare_instance(inst).blocks
        # sum_j p_j tr(rho0^j (A_f^j - A_i^j)) over the word blocks
        mean_direct = sum(
            p * float(np.trace(
                rho @ (finite_part(blocks.final, j) - finite_part(blocks.initial, j))
            ).real)
            for j, (p, rho) in enumerate(zip(inst.ensemble.priors, blocks.states))
        )
        chi = qf.holevo_chi(inst.ensemble)
        info = qf.mutual_information(inst)
        assert abs(mean_direct - (chi - info)) < 1e-9


def test_infinite_branch_unreachable():
    # two pure states span a rank-2 supp rho_bar in dimension 3, so every
    # word's A_f has a +infinity branch outside it
    for seed in (0, 5):
        inst = qf.random_instance(3, 2, 3, seed, "pure")
        blocks = qf.prepare_instance(inst).blocks
        for j, rho in enumerate(blocks.states):
            assert blocks.final.values[blocks.final.labels[j, -1]] == math.inf
            cols = blocks.final.vectors[j][:, column_values(blocks.final, j) == math.inf]
            leak = float(np.trace(rho @ cols @ cols.conj().T).real)
            assert abs(leak) <= 1e-12


def test_analyze_orthogonal_equality_case():
    rep = qf.analyze(orthogonal_instance())
    assert abs(rep.mutual_information - math.log(2)) < 1e-10
    assert abs(rep.chi - math.log(2)) < 1e-10
    assert abs(rep.gamma - 1.0) < 1e-10
    assert abs(rep.bound_slack) < 1e-8
    assert rep.equality_residual < 1e-8
    assert rep.passed


def test_analyze_identical_states():
    rep = qf.analyze(identical_states_instance())
    assert abs(rep.gamma - 1.0) < 1e-9
    assert rep.mutual_information < 1e-10
    assert rep.chi < 1e-10
    assert rep.equality_residual < 1e-8


def test_analyze_worked_example_against_oracle():
    inst = zero_plus_instance()
    rep = qf.analyze(inst)
    assert abs(rep.mutual_information - I_CLOSED) < 1e-10
    assert abs(rep.chi - CHI_CLOSED) < 1e-10
    assert rep.bound_slack > 0
    assert 0 < rep.neg_log_gamma < rep.chi - rep.mutual_information
    dil = qf.naimark_dilate(inst.povm)
    oracle = enumeration_oracle(
        inst.ensemble.priors, inst.ensemble.states, inst.povm.elements, projectors(dil)
    )
    assert abs(rep.gamma - oracle["gamma"]) < 1e-8
    assert abs(rep.mean_delta_a - oracle["mean_delta_a"]) < 1e-8
    assert abs(rep.mutual_information - oracle["mutual_information"]) < 1e-10
    assert abs(rep.chi - oracle["chi"]) < 1e-10


def test_analyze_random_instance_against_oracle():
    for seed in (3, 4):
        inst = qf.random_instance(3, 2, 3, seed=seed, state_kind="mix")
        dil = qf.naimark_dilate(inst.povm)
        rep = qf.analyze(inst)
        oracle = enumeration_oracle(
            inst.ensemble.priors, inst.ensemble.states, inst.povm.elements, projectors(dil)
        )
        assert abs(rep.gamma - oracle["gamma"]) < 1e-8
        assert abs(rep.mean_delta_a - oracle["mean_delta_a"]) < 1e-8


def test_gt_chain_random_qubit_instances():
    for seed in range(50):
        inst = qf.random_instance(2, 2, 1 + seed % 4, seed=100 + seed, state_kind="mix")
        rep = qf.analyze(inst)
        assert rep.gamma <= rep.chain.g1 + 1e-8
        assert rep.chain.g1 <= rep.chain.g2 + 1e-8
        assert abs(rep.chain.g2 - 1.0) < 1e-9


def test_gt_chain_tight_cases():
    rep = qf.analyze(orthogonal_instance())
    assert abs(rep.chain.g1 - 1.0) < 1e-9
    assert abs(rep.chain.g2 - 1.0) < 1e-9
    rep = qf.analyze(identical_states_instance())
    assert abs(rep.chain.g1 - 1.0) < 1e-9


def test_equality_residual_forward_and_backward():
    assert qf.analyze(orthogonal_instance()).equality_residual < 1e-8
    assert qf.analyze(identical_states_instance()).equality_residual < 1e-8
    rep = qf.analyze(zero_plus_instance())
    assert rep.bound_slack > 1e-4
    assert rep.equality_residual > 1e-6


def test_prior_permutation_covariance():
    inst = qf.random_instance(2, 3, 3, seed=21)
    perm = [2, 0, 1]
    permuted = qf.CqChannelInstance.create(
        qf.Ensemble.create(
            inst.ensemble.priors[perm], [inst.ensemble.states[i] for i in perm]
        ),
        inst.povm,
    )
    a, b = qf.analyze(inst), qf.analyze(permuted)
    assert abs(a.mutual_information - b.mutual_information) < 1e-10
    assert abs(a.chi - b.chi) < 1e-10
    assert abs(a.gamma - b.gamma) < 1e-10


def test_random_instance_determinism_and_validity():
    a = qf.random_instance(3, 2, 4, seed=77, state_kind="mix")
    b = qf.random_instance(3, 2, 4, seed=77, state_kind="mix")
    assert np.array_equal(a.ensemble.priors, b.ensemble.priors)
    for s, t in zip(a.ensemble.states, b.ensemble.states):
        assert np.array_equal(s, t)
    for m, n in zip(a.povm.elements, b.povm.elements):
        assert np.array_equal(m, n)
    # validity is enforced by the constructors; re-run them explicitly
    qf.POVM.create(a.povm.elements)
    qf.Ensemble.create(a.ensemble.priors, a.ensemble.states)


def test_supp_violation_is_rejected():
    # word supported outside the average state support cannot happen with
    # positive priors; simulate it by corrupting the prior vector handling
    rho_a = np.diag([1.0, 0.0]).astype(complex)
    rho_b = np.diag([0.0, 1.0]).astype(complex)
    ens = qf.Ensemble.create([1.0 - 1e-13, 1e-13], [rho_a, rho_b])
    # the second word was stripped (prior at the floor), so rho_b is gone
    assert ens.n_words == 1


def test_optimize_measurement_orthogonal_reaches_log2():
    ens = orthogonal_instance().ensemble
    povm, achieved = qf.optimize_measurement(ens, 2, seed=1)
    assert achieved >= math.log(2) - 1e-6
    qf.POVM.create(povm.elements)


def test_optimize_measurement_identical_states_zero():
    ens = identical_states_instance().ensemble
    _, achieved = qf.optimize_measurement(ens, 2, seed=2)
    assert achieved <= 1e-9


def test_optimize_measurement_beats_z_basis():
    # the optimal two-outcome measurement of {|0>, |+>} with equal priors
    # reaches ln 2 - h((1 + 1/sqrt 2)/2), and h((1 + 1/sqrt 2)/2) is chi
    inst = zero_plus_instance()
    _, achieved = qf.optimize_measurement(inst.ensemble, 2, seed=3)
    assert achieved >= qf.mutual_information(inst)
    assert abs(achieved - (math.log(2) - CHI_CLOSED)) <= 1e-10


def trine_ensemble():
    """Three qubit states 120 degrees apart on the Bloch circle, equal priors."""
    states = []
    for k in range(3):
        half_angle = math.pi * k / 3
        v = np.array([math.cos(half_angle), math.sin(half_angle)], dtype=complex)
        states.append(np.outer(v, v.conj()))
    return qf.Ensemble.create([1 / 3] * 3, states)


def test_optimize_measurement_trine_climbs_past_projective():
    # The trine's accessible information ln(3/2) needs a three-outcome POVM
    # (the anti-trine); a two-outcome projective measurement reaches at
    # most about 0.318 nats, so only the ascent can get close.
    ens = trine_ensemble()
    for seed in range(5):
        _, achieved = qf.optimize_measurement(ens, 3, seed=seed)
        assert abs(achieved - math.log(1.5)) <= 1e-9, seed


@pytest.mark.parametrize(
    "make, n_outcomes", [(lambda: zero_plus_instance().ensemble, 2), (trine_ensemble, 3)], ids=["zero_plus", "trine"]
)
def test_optimized_povm_meets_holevos_stationarity_condition(make, n_outcomes):
    # at a maximum of I, Lambda = sum_k R_k M_k is Hermitian and
    # Lambda - R_l >= 0 for every outcome l (Holevo's condition)
    ens = make()
    for seed in range(5):
        povm, _ = qf.optimize_measurement(ens, n_outcomes, seed=seed)
        asymmetry, lowest = stationarity_defects(ens, povm.elements, qf.DEFAULT_TOLS.prob_floor)
        assert asymmetry <= 1e-8, seed
        assert lowest >= -1e-8, seed


def test_zero_plus_ascent_needs_at_most_100_batched_iterations():
    # every start converges well before the step cap; the one-proposal
    # doubling/halving rule needs about 190 iterations here
    calls = []

    def normalize(blocks, floor):
        calls.append(len(blocks))
        return normalized_blocks(blocks, floor)

    ens = zero_plus_instance().ensemble
    for seed in range(5):
        calls.clear()
        with mock.patch.object(holevo, "normalized_blocks", normalize):
            qf.optimize_measurement(ens, 2, seed=seed)
        assert len(calls) - 1 <= 100, seed  # the first call normalizes the starts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(STATE_KINDS),
    st.integers(0, 2**32 - 1),
)
# every start reaches the step cap under both ascents, I still rising
@example(3, 3, 3, 92, "pure", 0)
def test_ascent_ends_no_lower_than_the_one_proposal_reference(dim, n_words, n_outcomes, seed, kind, opt_seed):
    ens = qf.random_instance(dim, n_words, n_outcomes, seed=seed, state_kind=kind).ensemble
    seen = {}

    def spy(starts, ensemble, prob_floor):
        seen["starts"] = starts
        seen["infos"], blocks = _ascend(starts, ensemble, prob_floor)
        return seen["infos"], blocks

    with mock.patch.object(holevo, "_ascend", spy):
        povm, achieved = qf.optimize_measurement(ens, n_outcomes, seed=opt_seed)
    qf.POVM.create(povm.elements)
    assert achieved <= qf.holevo_chi(ens) + 1e-8
    # the same starts under the one-proposal loop: where its best start
    # converges before the cap, the batched ascent ends no lower
    ref_infos, _, capped = reference_ascent(seen["starts"], ens, qf.DEFAULT_TOLS.prob_floor)
    best = int(np.argmax(ref_infos))
    if not capped[best]:
        assert seen["infos"].max() >= ref_infos[best] - 1e-9


def contrast_eigenbasis_povm(ensemble, n_outcomes):
    """Projectors onto the eigenvectors of rho_0 - rho_1 (of the average
    state for one word), padded with zero elements."""
    states = ensemble.states
    contrast = states[0] - states[1] if len(states) > 1 else ensemble.average_state()
    _, vectors = np.linalg.eigh(contrast)
    elements = [np.outer(v, v.conj()) for v in vectors.T]
    elements += [np.zeros_like(elements[0])] * (n_outcomes - ensemble.dim)
    return qf.POVM.create(elements)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(STATE_KINDS),
    st.integers(0, 2**32 - 1),
)
def test_optimize_measurement_ascent_properties(dim, n_words, n_outcomes, seed, kind, opt_seed):
    ens = qf.random_instance(dim, n_words, n_outcomes, seed=seed, state_kind=kind).ensemble
    povm, achieved = qf.optimize_measurement(ens, n_outcomes, seed=opt_seed)
    qf.POVM.create(povm.elements)
    assert achieved <= qf.holevo_chi(ens) + 1e-8
    if n_outcomes >= dim:
        guess = qf.CqChannelInstance.create(ens, contrast_eigenbasis_povm(ens, n_outcomes))
        assert achieved >= qf.mutual_information(guess) - 1e-12


def test_optimize_measurement_all_singular_starts_raise(monkeypatch):
    # zero Gaussian blocks give every start a singular normalizer, and
    # K < d leaves out the contrast start
    monkeypatch.setattr(holevo, "complex_gaussian", lambda rng, shape: np.zeros(shape, dtype=complex))
    ens = qf.random_instance(3, 2, 2, seed=0).ensemble
    with pytest.raises(ConsistencyError, match="every start of the measurement ascent has a singular"):
        qf.optimize_measurement(ens, 2, seed=0)


def test_a_negative_seed_is_a_validation_error_naming_the_seed():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -3"):
        qf.random_instance(2, 2, 2, seed=-3)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        qf.optimize_measurement(zero_plus_instance().ensemble, 2, seed=-1)


def test_a_seed_or_size_that_is_not_an_integer_is_a_validation_error_naming_it():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got 1.5"):
        qf.random_instance(2, 2, 2, seed=1.5)
    for i, name in enumerate(("dim", "n_words", "n_outcomes")):
        sizes = [2, 2, 2]
        sizes[i] = 2.0
        with pytest.raises(ValidationError, match=f"{name} must be a positive integer, got 2.0"):
            qf.random_instance(*sizes, seed=1)
    # numpy integers are integers
    assert qf.random_instance(np.int64(2), 2, 2, seed=np.int64(1)).ensemble.dim == 2


def test_an_outcome_count_that_is_not_an_integer_is_a_validation_error_naming_it():
    ens = zero_plus_instance().ensemble
    for n_outcomes in (2.0, "3", None):
        with pytest.raises(ValidationError, match=f"n_outcomes must be a positive integer, got {n_outcomes!r}"):
            qf.optimize_measurement(ens, n_outcomes)
    # integers below 2, True among them, are too few outcomes
    for n_outcomes in (1, True, 0, np.int64(1)):
        with pytest.raises(ValidationError, match="needs at least 2 outcomes"):
            qf.optimize_measurement(ens, n_outcomes)
    assert qf.optimize_measurement(ens, np.int64(2), seed=1)[0].n_outcomes == 2


def test_an_instance_needs_an_ensemble_and_a_povm():
    inst = zero_plus_instance()
    for args, match in (
        ((inst.ensemble, "x"), "povm must be a qfluct POVM, got str"),
        (("x", inst.povm), "ensemble must be a qfluct Ensemble, got str"),
        ((inst.povm, inst.ensemble), "ensemble must be a qfluct Ensemble, got POVM"),
    ):
        with pytest.raises(ValidationError, match=match):
            qf.CqChannelInstance.create(*args)


@st.composite
def ascent_cases(draw):
    dim, n_outcomes = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    ens = qf.random_instance(
        dim,
        draw(st.integers(1, 3)),
        n_outcomes,
        seed=draw(st.integers(0, 2**32 - 1)),
        state_kind=draw(st.sampled_from(STATE_KINDS)),
    ).ensemble
    n_starts = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = complex_gaussian(rng, (n_starts, n_outcomes, dim, dim))
    zero = draw(st.none() | st.integers(0, n_starts - 1))
    if zero is not None:
        starts[zero] = 0
    return ens, starts, zero, draw(st.sampled_from([None, 0.6, 0.9]))


def ascend(starts, ens, proposal_floor):
    """_ascend, with proposals whose normalizer has smallest eigenvalue at
    or below proposal_floor treated as singular: random starts almost
    never reach a singular proposal, so a raised floor brings them about."""
    if proposal_floor is None:
        return _ascend(starts, ens, qf.DEFAULT_TOLS.prob_floor)
    floors = []  # the first call normalizes the starts, the others the proposals

    def normalize(blocks, floor):
        floors.append(proposal_floor if floors else floor)
        return normalized_blocks(blocks, floors[-1])

    with mock.patch.object(holevo, "normalized_blocks", normalize):
        return _ascend(starts, ens, qf.DEFAULT_TOLS.prob_floor)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ascent_cases())
def test_ascent_starts_in_lockstep_follow_their_lone_paths(case):
    # each start keeps its own step size, accept rule and exit, so running
    # it alongside others changes nothing, to the last bit
    ens, starts, zero, proposal_floor = case
    infos, blocks = ascend(starts, ens, proposal_floor)
    for i in range(len(starts)):
        alone_info, alone_blocks = ascend(starts[i:i + 1], ens, proposal_floor)
        assert infos[i] == alone_info[0], i
        assert np.array_equal(blocks[i], alone_blocks[0]), i
    if zero is not None:
        assert infos[zero] == -math.inf
        rest = [i for i in range(len(starts)) if i != zero]
        rest_infos, rest_blocks = ascend(starts[rest], ens, proposal_floor)
        assert np.array_equal(rest_infos, infos[rest])
        assert np.array_equal(rest_blocks, blocks[rest])


@st.composite
def instances_and_rngs(draw):
    inst = qf.random_instance(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
        state_kind=draw(st.sampled_from(STATE_KINDS)),
    )
    return inst, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(instances_and_rngs())
def test_analyze_matches_a_randomly_dilated_composite(case):
    # analyze never builds a dilation: every composite quantity depends on
    # the dilated projectors Pi_k only through their probe blocks
    # <0|Pi_k|0> = M_k.  The enumeration oracle runs the full d*K*J
    # construction on the projectors of a random unitary completion.
    inst, rng = case
    rep = qf.analyze(inst, strict=False)
    dilation = naimark_dilate_randomized(inst.povm, rng)
    oracle = enumeration_oracle(
        inst.ensemble.priors, inst.ensemble.states, inst.povm.elements, projectors(dilation)
    )
    assert abs(rep.gamma - oracle["gamma"]) <= 1e-8
    assert abs(rep.mean_delta_a - oracle["mean_delta_a"]) <= 1e-8


def test_analyze_rejects_dimension_mismatch():
    ens = zero_plus_instance().ensemble
    with pytest.raises(ValidationError, match="mismatch"):
        qf.CqChannelInstance.create(ens, random_povm(3, 2, np.random.default_rng(0)))


def composite_case(dim, n_words, n_outcomes, seed, kind, variant="plain", tiny=1e-11):
    """A random instance, optionally with words 0 and 1 in the same state
    ("identical") or with every word but the first at prior tiny ("tiny_prior")."""
    inst = qf.random_instance(dim, n_words, n_outcomes, seed=seed, state_kind=kind)
    priors, states = list(inst.ensemble.priors), list(inst.ensemble.states)
    if variant == "identical" and n_words > 1:
        states[1] = states[0].copy()
    if variant == "tiny_prior" and n_words > 1:
        priors = [1.0 - tiny * (n_words - 1)] + [tiny] * (n_words - 1)
    return qf.CqChannelInstance.create(qf.Ensemble.create(priors, states), inst.povm)


@st.composite
def composite_cases(draw):
    return composite_case(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(STATE_KINDS)),
        draw(st.sampled_from(("plain", "identical", "tiny_prior"))),
        draw(st.sampled_from((2e-12, 1e-11, 1e-9))),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(composite_cases())
@example(composite_case(1, 1, 2, 0, "mixed"))
@example(composite_case(1, 3, 3, 1, "mixed"))
@example(composite_case(2, 1, 3, 2, "rank_deficient"))
@example(composite_case(2, 2, 3, 5, "rank_deficient"))
@example(composite_case(3, 2, 2, 3, "pure"))
@example(composite_case(2, 3, 3, 4, "mix", "identical"))
@example(composite_case(2, 2, 2, 6, "pure", "identical"))
@example(composite_case(3, 2, 3, 7, "mixed", "tiny_prior", 2e-12))
@example(composite_case(2, 3, 2, 8, "rank_deficient", "tiny_prior", 1e-11))
# a word's exp(-A_f) has an eigenvalue above rank_tol times its own largest
# one, the per-word support cutoff, but not above rank_tol times the
# largest over all words, the composite cutoff
@example(composite_case(3, 2, 3, 1990514405, "rank_deficient", "tiny_prior", 2e-12))
@example(composite_case(3, 4, 2, 3708847978, "rank_deficient", "tiny_prior", 2e-12))
@example(composite_case(3, 4, 4, 536472415, "mix", "tiny_prior", 2e-12))
# word 1 reaches outside word 0's support, where rho_bar's eigenvalues are
# below rank_tol times its largest one
@example(composite_case(3, 2, 4, 3427104801, "rank_deficient", "tiny_prior", 2e-12))
def test_analyze_per_word_matches_composite_reference(inst):
    # analyze solves the composite word by word; the reference runs the
    # engine once on the dense d*K*J composite, merging branches of equal
    # value across words.  Both must give the same gamma by either route,
    # the same mean, -ln(gamma) and merged atoms.
    try:
        internals = qf.prepare_instance(inst)
    except ValidationError as exc:  # a tiny prior can leave an outcome's marginal at the floor
        assert "inconsistent marginal" in str(exc)
        assume(False)
    rep = qf.analyze(inst, strict=False)
    ref = composite_reference(inst, internals)
    for name in ("gamma_distribution", "gamma_trace", "mean_delta_a"):
        assert abs(getattr(rep, name) - ref[name]) <= 1e-12, name
    assert abs(rep.neg_log_gamma + math.log(ref["gamma_trace"])) <= 1e-12
    assert len(rep.atoms) == len(ref["atoms"])
    for (v, p), (v_ref, p_ref) in zip(rep.atoms, ref["atoms"]):
        assert abs(v - v_ref) <= 1e-12 * max(1.0, abs(v_ref))
        assert abs(p - p_ref) <= 1e-12


def test_tiny_prior_word_outside_the_other_supports_is_accepted():
    # supp rho_bar is the span of the words' supports: word 1 adds about
    # 2e-12 times its eigenvalues to rho_bar outside word 0's support,
    # below rank_tol times rho_bar's largest eigenvalue, yet inside supp rho_bar
    inst = composite_case(3, 2, 4, 3427104801, "rank_deficient", "tiny_prior", 2e-12)
    assert inst.ensemble.priors.tolist() == [1 - 2e-12, 2e-12]
    rep = qf.analyze(inst)
    assert rep.passed
    assert rep.route_error <= 1e-11


def test_final_branch_values_are_the_compressed_exponent_spectrum():
    # p(a|0) = 1e-11 against p(a) = 1/2 puts an eigenvalue of each word's
    # exponent near -25.3 on the rotated direction |a>; eigh of
    # W_j = exp(-A_f) would fix e^-25.3 only to about 1e-7 relative here
    theta = 0.7
    a = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    b = np.array([-math.sin(theta), math.cos(theta)], dtype=complex)
    elements = [np.outer(a, a.conj()), np.outer(b, b.conj())]
    rho0 = (1 - 1e-11) * elements[1] + 1e-11 * elements[0]
    inst = qf.CqChannelInstance.create(
        qf.Ensemble.create([0.5, 0.5], [rho0, np.eye(2) - rho0]), qf.POVM.create(elements)
    )
    internals = qf.prepare_instance(inst)
    states = inst.ensemble.states
    cond = np.array([[np.trace(rho @ m).real for m in elements] for rho in states])
    marginals = inst.ensemble.priors @ cond
    w, v = np.linalg.eigh(inst.ensemble.average_state())
    log_bar = (v * np.log(w)) @ v.conj().T
    final = internals.blocks.final
    for j in range(len(states)):
        exponent = log_bar + sum(math.log(c / mk) * m for c, mk, m in zip(cond[j], marginals, elements))
        expected = np.sort(-np.linalg.eigvalsh(exponent))
        assert expected[-1] > 25
        values = final.values[final.labels[j, 0] : final.labels[j, -1] + 1]
        values = values[np.isfinite(values)]
        assert values.shape == expected.shape
        assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: qf.random_instance(2, 2, 3, seed=5, state_kind="mix"),
        lambda: qf.random_instance(3, 3, 4, seed=6, state_kind="mix"),
        orthogonal_instance,  # each word drops one outcome
        lambda: qf.random_instance(2, 6, 3, seed=7, state_kind="mix"),
    ],
    ids=["d2_j2_k3", "d3_j3_k4", "orthogonal", "d2_j6_k3"],
)
def test_analyze_decomposes_nothing_larger_than_d(make, monkeypatch):
    # Counted from Ensemble.create on, whose checks run the states' eigh
    # that analyze reuses, and in matrices, a batched call counting each
    # matrix of its stack: rho_j, rho_bar and each word's compressed
    # exponent take 2J + 1 eigh matrices, plus one for each word with a
    # dropped outcome; no POVM element is decomposed.  holevo_chi takes
    # J + 1 eigvalsh matrices, the states and rho_bar.  Counted in calls,
    # the states, rho_bar and the exponents of the words that drop no
    # outcome take three eigh calls whatever J is, each word that drops an
    # outcome two more (its suppressor and its compressed exponent), and
    # holevo_chi one eigvalsh.  The one svd, of the d x n support columns,
    # is thin once n > d: no factor has a side longer than max(d, n), and
    # there is no n x n right factor.
    inst = make()
    d, n_words = inst.ensemble.dim, inst.ensemble.n_words
    # counted on the instance's own ensemble, whose cache the fresh one below does not share
    dropping = int((~qf.prepare_instance(inst).retained).any(axis=1).sum())
    priors, states = inst.ensemble.priors, inst.ensemble.states
    shapes = {"eigh": [], "eigvalsh": []}
    for name, seen in shapes.items():
        def wrapped(m, *args, _original=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.shape(m))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    factors = []

    def svd(m, *args, _original=np.linalg.svd, **kwargs):
        result = _original(m, *args, **kwargs)
        factors.append((np.shape(m), [np.shape(f) for f in result]))
        return result

    monkeypatch.setattr(np.linalg, "svd", svd)
    ensemble = qf.Ensemble.create(priors, states)
    assert qf.analyze(qf.CqChannelInstance.create(ensemble, inst.povm)).passed
    assert len(factors) == 1
    (rows, n), sides = factors[0]
    assert rows == d
    assert all(max(shape) <= max(d, n) for shape in sides)
    assert n <= d or (n, n) not in sides
    assert all(len(shape) >= 2 and max(shape[-2:]) <= d for seen in shapes.values() for shape in seen)
    matrices = {name: sum(math.prod(shape[:-2]) for shape in seen) for name, seen in shapes.items()}
    assert matrices["eigh"] <= 2 * n_words + 1 + dropping
    assert matrices["eigvalsh"] <= n_words + 1
    assert len(shapes["eigh"]) <= 3 + 2 * dropping
    assert len(shapes["eigvalsh"]) <= 1


def raw_instance(second_state):
    """Word 0 is |0><0| and word 1 the given state, priors 1/2, under the Z
    POVM; the raw Ensemble constructor skips validation, as a corrupted
    instance would."""
    ens = qf.Ensemble(priors=np.array([0.5, 0.5]), states=(P0, np.asarray(second_state, dtype=complex)))
    return qf.CqChannelInstance(ensemble=ens, povm=qf.POVM.create(Z_POVM_ELEMENTS))


@pytest.mark.parametrize(
    "state, error, match",
    [
        ([[0.5, 0.1], [0.3, 0.5]], ValidationError, "state 1 is not Hermitian: max asymmetry"),
        ([[0.5, 0.6], [0.6, 0.5]], ValidationError, "code word state 1 requires a PSD operator; min eigenvalue"),
        (np.diag([0.7, 0.2]), ConsistencyError, "conditional row 1 sums to"),
        (np.diag([1.5, -0.5]), ValidationError, "conditional probability .* of word 1 below -prob_floor"),
    ],
    ids=["not_hermitian", "not_psd", "row_sum", "negative_conditional"],
)
def test_batched_checks_name_the_failing_word(state, error, match):
    # every check of the word-stacked construction still runs and names the word
    with pytest.raises(error, match=match):
        qf.analyze(raw_instance(state), strict=False)


def test_holevo_chi_batched_state_checks_name_the_failing_word():
    for state, match in (
        ([[0.5, 0.1], [0.3, 0.5]], "state 1 is not Hermitian"),
        ([[0.5, 0.6], [0.6, 0.5]], "state 1 has negative eigenvalue"),
        (np.diag([0.7, 0.2]), "state 1 trace 0.8999"),
    ):
        with pytest.raises(ValidationError, match=match):
            qf.holevo_chi(raw_instance(state).ensemble)


def test_batched_observable_check_names_the_failing_word(monkeypatch):
    # Counted from Ensemble.create on, the third eigh is the batched
    # exponent of the words that drop no outcome (after the states' eigh of
    # create and rho_bar's on its support); tilting one column of word 1 by
    # 1e-6 breaks the orthonormality of its A_f columns, which
    # |V†V - I| <= ALGEBRA_TOL catches.
    inst = qf.random_instance(2, 3, 3, seed=5, state_kind="mixed")
    assert qf.prepare_instance(inst).retained.all()
    priors, states = inst.ensemble.priors, inst.ensemble.states
    original, calls = np.linalg.eigh, []

    def tilted(m, *args, **kwargs):
        values, vectors = original(m, *args, **kwargs)
        calls.append(np.shape(m))
        if len(calls) == 3:
            vectors = vectors.copy()
            vectors[1, :, 0] *= 1 + 1e-6
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", tilted)
    fresh = qf.CqChannelInstance.create(qf.Ensemble.create(priors, states), inst.povm)
    with pytest.raises(ValidationError, match="A_f of word 1: branches overlap or are not orthonormal"):
        qf.analyze(fresh, strict=False)
    assert calls[:3] == [(3, 2, 2), (2, 2), (3, 2, 2)]


def count_decompositions(monkeypatch):
    """Wrap np.linalg.eigh, eigvalsh and svd; returns the argument shapes of
    each, appended to on every call."""
    shapes = {"eigh": [], "eigvalsh": [], "svd": []}
    for name in shapes:
        def wrapped(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            shapes[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    return shapes


def test_a_povm_and_rank_tol_sweep_derives_the_ensemble_side_once(monkeypatch):
    # Three POVMs under two rank_tols on one ensemble of three pure words at
    # d = 4, so supp rho_bar has rank 3 and no other eigh has the states'
    # shape (3, 4, 4).  Each report is bit-identical to one from a fresh
    # ensemble of the same inputs.  The states' eigh runs once in all, in
    # create; the support svd and rho_bar's eigh on its support once per
    # rank_tol; chi's eigvalsh once.  Only the last rank_tol's block is
    # kept, so going back to the first derives it again.
    rng = np.random.default_rng(29)
    priors, states = rng.dirichlet(np.ones(3)), [random_pure_state(4, rng) for _ in range(3)]
    povms = [random_povm(4, k, rng) for k in (2, 3, 5)]
    tols = (qf.DEFAULT_TOLS, qf.Tolerances(rank_tol=1e-9))

    def reports(ensemble=None):
        return [
            repr(qf.analyze(qf.CqChannelInstance.create(ensemble or qf.Ensemble.create(priors, states), povm), tol))
            for tol in tols
            for povm in povms
        ]

    fresh, fresh_chi = reports(), qf.holevo_chi(qf.Ensemble.create(priors, states))
    shapes = count_decompositions(monkeypatch)
    ensemble = qf.Ensemble.create(priors, states)
    assert reports(ensemble) == fresh
    assert qf.holevo_chi(ensemble) == fresh_chi
    assert shapes["eigh"].count((3, 4, 4)) == 1
    assert shapes["eigh"].count((3, 3)) == len(shapes["svd"]) == len(tols)
    assert shapes["eigvalsh"] == [(4, 4, 4)]
    qf.analyze(qf.CqChannelInstance.create(ensemble, povms[0]), tols[0])
    assert len(shapes["svd"]) == len(tols) + 1


@pytest.mark.parametrize(
    "state, analyze_match, chi_match",
    [
        ([[0.5, 0.1], [0.3, 0.5]], "state 1 is not Hermitian", "state 1 is not Hermitian"),
        ([[0.5, 0.6], [0.6, 0.5]], "code word state 1 requires a PSD operator", "state 1 has negative eigenvalue"),
    ],
    ids=["not_hermitian", "not_psd"],
)
def test_a_raw_ensemble_with_a_bad_state_raises_on_every_use(state, analyze_match, chi_match):
    # the raw constructor skips create's checks; the first use of the
    # ensemble's cache runs them, and nothing is cached while they raise
    # (a non-PSD state's eigenpairs are right, and its support block fails)
    inst = raw_instance(state)
    for _ in range(2):
        with pytest.raises(ValidationError, match=analyze_match):
            qf.analyze(inst, strict=False)
        with pytest.raises(ValidationError, match=chi_match):
            qf.holevo_chi(inst.ensemble)
    assert not {"_last_support", "_chi"} & set(vars(inst.ensemble))


def test_an_ensemble_keeps_its_priors_and_states_read_only():
    # the cache cannot go stale: the priors and states are the ensemble's
    # own read-only arrays, and so are the average state and its support
    # that prepare_instance hands out
    state = PPLUS.copy()
    inst = qf.CqChannelInstance.create(
        qf.Ensemble.create([0.5, 0.5], [P0, state]), qf.POVM.create(Z_POVM_ELEMENTS)
    )
    ens, internals = inst.ensemble, qf.prepare_instance(inst)
    assert ens.states[1] is not state
    for array in (ens.states[0], ens.priors, internals.rho_bar, internals.average_support.vectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_a_raw_ensemble_keeps_its_own_copies():
    # the raw constructor copies and freezes the caller's arrays as create
    # does, so writing to them after a first analyze leaves the cached
    # spectra, rho_bar and chi right: the reports stay those of the inputs
    # as they were, and equal a fresh create's
    priors, state = np.array([0.5, 0.5]), PPLUS.copy()
    z_povm = qf.POVM.create(Z_POVM_ELEMENTS)
    ens = qf.Ensemble(priors=priors, states=(P0, state))
    first = repr(qf.analyze(qf.CqChannelInstance(ensemble=ens, povm=z_povm)))
    priors[:] = [0.8, 0.2]
    state[:] = P0
    again = repr(qf.analyze(qf.CqChannelInstance(ensemble=ens, povm=z_povm)))
    fresh = qf.analyze(qf.CqChannelInstance.create(qf.Ensemble.create([0.5, 0.5], [P0, PPLUS]), z_povm))
    assert again == first == repr(fresh)
    assert qf.holevo_chi(ens) == fresh.chi
    for array in (ens.priors, ens.states[1]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def check_exponent_paths(inst):
    """analyze against the dense composite reference at the 1e-8 gate, and
    each word's finite A_f values against the spectrum of its compressed
    exponent, built by the oracle, at 1e-12 relative."""
    internals = qf.prepare_instance(inst)
    dropping = (~internals.retained).any(axis=1)
    rep = qf.analyze(inst)
    ref = composite_reference(inst, internals)
    for name in ("gamma_distribution", "gamma_trace", "mean_delta_a"):
        assert abs(getattr(rep, name) - ref[name]) <= 1e-8, name
    tol = qf.DEFAULT_TOLS
    for j, (w, _) in enumerate(compressed_exponents(inst, internals)):
        expected = np.sort(-w[np.exp(w) > relative_cutoff(np.exp(w), tol.rank_tol)])
        values = column_values(internals.blocks.final, j)
        values = values[np.isfinite(values)]
        assert values.shape == expected.shape
        assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
    return dropping


def test_both_exponent_paths_in_one_instance():
    # |0><0| drops the Z outcome 1, the full-rank word drops nothing
    rho = random_density_matrix(2, np.random.default_rng(3))
    ens = qf.Ensemble.create([0.4, 0.6], [P0, rho])
    dropping = check_exponent_paths(qf.CqChannelInstance.create(ens, qf.POVM.create(Z_POVM_ELEMENTS)))
    assert dropping.tolist() == [True, False]


@st.composite
def mixed_dropping_cases(draw):
    """Words that are basis states of a d-outcome computational-basis POVM
    drop every other outcome; random full-rank words drop none."""
    d = draw(st.integers(2, 3))
    kinds = draw(st.lists(st.integers(-1, d - 1), min_size=2, max_size=4))  # -1: a full-rank word
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [proj(d, k) if k >= 0 else random_density_matrix(d, rng) for k in kinds]
    ens = qf.Ensemble.create(rng.dirichlet(np.ones(len(kinds))), states)
    return qf.CqChannelInstance.create(ens, qf.POVM.create([proj(d, k) for k in range(d)]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mixed_dropping_cases())
def test_both_exponent_paths_on_mixed_dropping_instances(inst):
    dropping = (~qf.prepare_instance(inst).retained).any(axis=1)
    assume(dropping.any() and not dropping.all())
    check_exponent_paths(inst)


@pytest.mark.parametrize("seed", [0, 1])
def test_analyze_passes_on_every_small_shape(seed):
    # the edges of the word batch: d = 1, J = 1, K = 1 and empty dropped sets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, n_words, n_outcomes in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4)):
            inst = qf.random_instance(d, n_words, n_outcomes, seed=100 * seed + d + 3 * n_words, state_kind="mix")
            assert qf.analyze(inst).passed, (d, n_words, n_outcomes)


def test_many_words_and_more_support_columns_than_d():
    # 512 words at d = 4, and pure words with J > d², so the support
    # columns outnumber d and the span's svd is thin
    rep = qf.analyze(qf.random_instance(4, 512, 4, 7, "mix"), strict=True)
    assert rep.route_error <= 1e-11
    rep = qf.analyze(qf.random_instance(2, 6, 3, 8, "pure"), strict=True)
    assert rep.route_error <= 1e-11
