import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qfluct as qf
from qfluct.errors import ConsistencyError, ValidationError
from qfluct.holevo import STATE_KINDS
from qfluct.rand import random_density_matrix, random_povm

from oracles import build_joint_state, composite_reference, enumeration_oracle, partial_trace

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
    dil = qf.naimark_dilate(inst.povm)
    rho0 = build_joint_state(inst.ensemble, dil)
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
    dil = qf.naimark_dilate(povm)
    rho0 = build_joint_state(ens, dil)
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


def finite_part(obs):
    """Sum of value * projector over the finite branches."""
    return sum(v * p for v, p in zip(obs.values, obs.projectors) if math.isfinite(v))


def test_mean_identity_on_random_instances():
    for seed in range(10):
        inst = qf.random_instance(2 + seed % 2, 1 + seed % 3, 2 + seed % 3, seed=seed)
        internals = qf.prepare_instance(inst)
        # sum_j p_j tr(rho0^j (A_f^j - A_i^j)) over the per-word protocols
        mean_direct = sum(
            p * float(np.trace(
                word.initial_state
                @ (finite_part(word.final_observable) - finite_part(word.initial_observable))
            ).real)
            for p, word in zip(inst.ensemble.priors, internals.protocols)
        )
        chi = qf.holevo_chi(inst.ensemble)
        info = qf.mutual_information(inst)
        assert abs(mean_direct - (chi - info)) < 1e-9


def test_infinite_branch_unreachable():
    for seed in (0, 5):
        inst = qf.random_instance(2, 2, 3, seed=seed, state_kind="rank_deficient")
        internals = qf.prepare_instance(inst)
        for word in internals.protocols:
            assert word.final_observable.has_infinite_branch
            leak = float(np.trace(word.initial_state @ word.final_observable.projectors[-1]).real)
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
        inst.ensemble.priors, inst.ensemble.states, inst.povm.elements, dil.projectors
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
            inst.ensemble.priors, inst.ensemble.states, inst.povm.elements, dil.projectors
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


def test_optimize_measurement_trine_climbs_past_projective():
    # Three qubit states 120 degrees apart on the Bloch circle, equal
    # priors: the accessible information ln(3/2) needs a three-outcome POVM
    # (the anti-trine); a two-outcome projective measurement reaches at
    # most about 0.318 nats, so only the ascent can get close.
    states = []
    for k in range(3):
        half_angle = math.pi * k / 3
        v = np.array([math.cos(half_angle), math.sin(half_angle)], dtype=complex)
        states.append(np.outer(v, v.conj()))
    ens = qf.Ensemble.create([1 / 3] * 3, states)
    for seed in range(5):
        _, achieved = qf.optimize_measurement(ens, 3, seed=seed)
        assert abs(achieved - math.log(1.5)) <= 1e-9, seed


def contrast_eigenbasis_povm(ensemble, n_outcomes):
    """Projectors onto the eigenvectors of rho_0 - rho_1 (of the average
    state for one word), padded with zero elements."""
    states = ensemble.states
    contrast = states[0] - states[1] if len(states) > 1 else ensemble.average_state()
    _, vectors = np.linalg.eigh(contrast)
    elements = [np.outer(v, v.conj()) for v in vectors.T]
    elements += [np.zeros_like(elements[0])] * (n_outcomes - ensemble.dim)
    return qf.POVM.create(elements)


@settings(max_examples=40, deadline=None, derandomize=True)
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
def test_dilation_choice_harness(case):
    # Every composite quantity depends on the dilated projectors Pi_k only
    # through their probe blocks <0|Pi_k|0> = M_k, so a different unitary
    # completion must give the same results to rounding.
    inst, rng = case
    canonical = qf.analyze(inst, strict=False)
    dilation = qf.naimark_dilate_randomized(inst.povm, rng)
    randomized = qf.analyze(inst, strict=False, dilation=dilation)
    for name in ("gamma", "neg_log_gamma", "mean_delta_a", "equality_residual"):
        assert abs(getattr(canonical, name) - getattr(randomized, name)) <= 1e-12, name
    assert abs(canonical.chain.g1 - randomized.chain.g1) <= 1e-12
    assert abs(canonical.chain.g2 - randomized.chain.g2) <= 1e-12


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
def test_analyze_per_word_matches_composite_reference(inst):
    # analyze solves the composite word by word; the reference runs the
    # engine once on the dense d*K*J composite, merging branches of equal
    # value across words.  Both must give the same gamma by either route,
    # the same mean, -ln(gamma) and merged atoms.
    try:
        internals = qf.prepare_instance(inst)
    except ValidationError:  # a tiny prior can leave an outcome's marginal at the floor
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
